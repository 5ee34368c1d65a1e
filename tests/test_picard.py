import numpy as np
import pytest

from oldb2d import (
    PhysParams,
    PicardConfig,
    PicardDivergenceError,
    StepControl,
    contraction_estimate,
    make_grid,
    picard_iterate,
    run,
)
from oldb2d import SimState
from oldb2d import picard as picard_mod
from oldb2d.checks import band_limited_admissible_state
from oldb2d.picard import (
    PicardHistory,
    apply_map,
    composite_norm,
    op_l1,
    op_l2,
    op_n,
    op_q1,
    op_q2,
    semigroup_paths,
)
from oldb2d.spectral import _Scratch, rfft2
from oldb2d.config import band_limited_random

from conftest import state_of
from oracles import relaxation_exact

TWO_PI = 2.0 * np.pi
PARAMS = PhysParams(nu=0.01, kappa=0.01, k=1.0, bigK=1.0)


def uniform_state(grid, c0, rho0):
    return state_of(grid, c=c0, rho=rho0)


def masked_noise(grid, rng, shape):
    raw = rng.standard_normal(shape)
    return rfft2(raw) * grid.mask


@pytest.fixture(scope="module")
def grid16():
    return make_grid(16, TWO_PI)


class TestQ1:
    def test_zero_arguments(self, grid16):
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        zero = np.zeros((9, 2, 16, 9), dtype=complex)
        rng = np.random.default_rng(0)
        u = masked_noise(grid16, rng, (9, 2, 16, 16))
        assert np.max(np.abs(op_q1(zero, u, grid16, PARAMS, cfg))) == 0.0
        assert np.max(np.abs(op_q1(u, zero, grid16, PARAMS, cfg))) == 0.0

    def test_steady_shear_self_advection(self, grid16):
        # u = (sin y, 0): u.grad(u) = 0, so Q1(u, u) vanishes.
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        _, y = grid16.nodes()
        uh = rfft2(np.stack([np.sin(y), np.zeros_like(y)]))
        path = np.broadcast_to(uh, (9, 2, 16, 9)).copy()
        assert np.max(np.abs(op_q1(path, path, grid16, PARAMS, cfg))) <= 1e-15

    def test_bilinearity(self, grid16):
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        rng = np.random.default_rng(1)
        u = masked_noise(grid16, rng, (9, 2, 16, 16))
        v = masked_noise(grid16, rng, (9, 2, 16, 16))
        w = masked_noise(grid16, rng, (9, 2, 16, 16))
        base = op_q1(u, v, grid16, PARAMS, cfg)
        scale = np.max(np.abs(base)) + 1e-300
        homog = op_q1(3.0 * u, v, grid16, PARAMS, cfg)
        assert np.max(np.abs(homog - 3.0 * base)) <= 1e-12 * scale
        additive = op_q1(u, v + w, grid16, PARAMS, cfg)
        parts = base + op_q1(u, w, grid16, PARAMS, cfg)
        assert np.max(np.abs(additive - parts)) <= 1e-12 * scale


class TestL1:
    def test_isotropic_stress_annihilated(self, grid16):
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        rng = np.random.default_rng(2)
        rho = masked_noise(grid16, rng, (9, 16, 16))
        abc = np.zeros((9, 3, 16, 9), dtype=complex)
        abc[:, 2] = 2.0 * rho  # sigma = rho * I
        assert np.max(np.abs(op_l1(abc, grid16, PARAMS, cfg))) <= 1e-14

    def test_zero(self, grid16):
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        zero = np.zeros((9, 3, 16, 9), dtype=complex)
        assert np.max(np.abs(op_l1(zero, grid16, PARAMS, cfg))) == 0.0

    def test_single_mode_closed_form(self, grid16):
        # Time-constant sigma with a single b-mode: per mode the Duhamel
        # integral is K (1 - exp(-nu |k|^2 t)) / (nu |k|^2) P(div sigma).
        t0 = 0.2
        cfg = PicardConfig(t0=t0, n_time_nodes=1025)
        x, y = grid16.nodes()
        b = np.cos(2 * x + y)
        abc = np.zeros((cfg.n_time_nodes, 3, 16, 9), dtype=complex)
        abc[:, 1] = rfft2(b)

        got = op_l1(abc, grid16, PARAMS, cfg)[-1]

        f1 = grid16.ikx * 0.0 + grid16.iky * abc[0, 1]
        f2 = grid16.ikx * abc[0, 1]
        kd = (grid16.kx * f1 + grid16.ky * f2) * grid16.inv_k_sq_d
        p1, p2 = f1 - grid16.kx * kd, f2 - grid16.ky * kd
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(
                grid16.k_sq > 0,
                (1.0 - np.exp(-PARAMS.nu * grid16.k_sq * t0)) / (PARAMS.nu * grid16.k_sq),
                t0,
            )
        expected = PARAMS.bigK * factor * np.stack([p1, p2])
        err = np.max(np.abs(got - expected))
        assert err <= 1e-8 * max(np.max(np.abs(expected)), 1e-300)


class TestQ2:
    def test_zero_arguments(self, grid16):
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        rng = np.random.default_rng(3)
        u = masked_noise(grid16, rng, (9, 2, 16, 16))
        abc = masked_noise(grid16, rng, (9, 3, 16, 16))
        zero_u = np.zeros_like(u)
        zero_abc = np.zeros_like(abc)
        assert np.max(np.abs(op_q2(zero_u, abc, grid16, PARAMS, cfg))) == 0.0
        assert np.max(np.abs(op_q2(u, zero_abc, grid16, PARAMS, cfg))) == 0.0

    def test_integrand_matches_dynamics(self, grid16):
        # The matrix-form assembly must agree with the strain-form stress
        # rate once relaxation, diffusion and the density source are removed.
        from oldb2d import rates
        from oldb2d.picard import q2_integrand

        state = band_limited_admissible_state(grid16, seed=4, kmax=3)
        u0h = rfft2(state.planes[0:2])
        abc0h = rfft2(state.planes[2:5])
        integrand = q2_integrand(u0h[None], abc0h[None], grid16)[0]
        lin = -(PARAMS.kappa * grid16.k_sq) - 2.0 * PARAMS.k
        expected = rfft2(rates(state, PARAMS)[2:5]) - lin * abc0h
        expected[2] -= 4.0 * PARAMS.k * rfft2(state.planes[5])
        scale = np.max(np.abs(expected)) + 1e-300
        assert np.max(np.abs(integrand - expected)) <= 1e-12 * scale


class TestL2:
    def test_uniform_density(self, grid16):
        t0 = 0.1
        cfg = PicardConfig(t0=t0, n_time_nodes=1025)
        rho0 = 1.3
        rho = np.zeros((cfg.n_time_nodes, 16, 9), dtype=complex)
        rho[:, 0, 0] = rho0
        out = op_l2(rho, grid16, PARAMS, cfg)
        c_mode = out[-1, 2, 0, 0].real
        expected = 2.0 * rho0 * (1.0 - np.exp(-2.0 * PARAMS.k * t0))
        assert abs(c_mode - expected) <= 1e-8 * expected
        assert np.max(np.abs(out[:, 0])) == 0.0
        assert np.max(np.abs(out[:, 1])) == 0.0

    def test_zero(self, grid16):
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        rho = np.zeros((9, 16, 9), dtype=complex)
        assert np.max(np.abs(op_l2(rho, grid16, PARAMS, cfg))) == 0.0

    def test_single_mode_closed_form(self, grid16):
        t0 = 0.1
        cfg = PicardConfig(t0=t0, n_time_nodes=1025)
        x, y = grid16.nodes()
        rho_vals = np.cos(x + 2 * y)
        rho = np.broadcast_to(rfft2(rho_vals), (cfg.n_time_nodes, 16, 9)).copy()
        out = op_l2(rho, grid16, PARAMS, cfg)
        beta = PARAMS.kappa * grid16.k_sq + 2.0 * PARAMS.k
        expected_c = 2.0 * rho[0] * 2.0 * PARAMS.k * (1.0 - np.exp(-beta * t0)) / beta
        err = np.max(np.abs(out[-1, 2] - expected_c))
        assert err <= 1e-8 * max(np.max(np.abs(expected_c)), 1e-300)


class TestTransportMap:
    def test_zero_velocity(self, grid16):
        cfg = PicardConfig(t0=0.2, n_time_nodes=17)
        rng = np.random.default_rng(5)
        rho0 = rfft2(1.0 + 0.5 * band_limited_random(grid16, rng, 3))
        u = np.zeros((17, 2, 16, 9), dtype=complex)
        out = op_n(u, rho0, grid16, cfg)
        for j in range(17):
            assert np.max(np.abs(out[j] - rho0 * grid16.mask)) <= 1e-15

    def test_uniform_density_invariant(self, grid16):
        cfg = PicardConfig(t0=0.2, n_time_nodes=17)
        rng = np.random.default_rng(6)
        psih = rfft2(band_limited_random(grid16, rng, 3))
        u_single = np.stack([-grid16.iky * psih, grid16.ikx * psih])
        u = np.broadcast_to(u_single, (17, 2, 16, 9)).copy()
        rho0 = np.zeros((16, 9), dtype=complex)
        rho0[0, 0] = 2.0
        out = op_n(u, rho0, grid16, cfg)
        assert np.max(np.abs(out - out[0])) <= 1e-13

    def test_integral_conservation(self, grid16):
        cfg = PicardConfig(t0=0.5, n_time_nodes=33)
        rng = np.random.default_rng(7)
        psih = rfft2(band_limited_random(grid16, rng, 3))
        u_single = 0.25 * np.stack([-grid16.iky * psih, grid16.ikx * psih])
        u = np.broadcast_to(u_single, (33, 2, 16, 9)).copy()
        rho0 = rfft2(1.0 + 0.5 * band_limited_random(grid16, rng, 3))
        out = op_n(u, rho0, grid16, cfg)
        mass0 = out[0, 0, 0].real
        # Parseval over the half spectrum: Hermitian weights count each
        # conjugate pair once per member.
        l2_0 = np.sum(grid16.weights * np.abs(out[0]) ** 2)
        for j in (16, 32):
            assert abs(out[j, 0, 0].real - mass0) <= 1e-8 * abs(mass0)
            assert abs(np.sum(grid16.weights * np.abs(out[j]) ** 2) - l2_0) <= 1e-8 * l2_0


class TestPicardIterate:
    def test_growth_from_zero_stress(self, grid16):
        # Only the density source acts: the limit is rho0 (1 - e^{-2kt}) I
        # and the iteration lands on it at the second step exactly.
        rho0 = 1.0
        state = uniform_state(grid16, 0.0, rho0)
        cfg = PicardConfig(t0=0.2, n_time_nodes=2049, tol=1e-12)
        traj, hist = picard_iterate(state, PARAMS, cfg)
        assert len(hist.diffs) == 2
        assert hist.diffs[-1] == 0.0
        t_end = cfg.times()[-1]
        expected_c = 2.0 * rho0 * (1.0 - np.exp(-2.0 * PARAMS.k * t_end))
        got_c = traj.state(cfg.n_time_nodes - 1).planes[4]
        assert np.max(np.abs(got_c - expected_c)) <= 1e-8
        assert np.max(np.abs(traj.u)) == 0.0

    def test_uniform_relaxation_limit(self, grid16):
        c0, rho0 = 3.0, 1.0
        state = uniform_state(grid16, c0, rho0)
        cfg = PicardConfig(t0=0.2, n_time_nodes=2049, tol=1e-12)
        traj, hist = picard_iterate(state, PARAMS, cfg)
        t_end = cfg.times()[-1]
        expected = relaxation_exact(t_end, c0, rho0, PARAMS.k)
        got = traj.state(cfg.n_time_nodes - 1).planes[4]
        assert np.max(np.abs(got - expected)) <= 1e-8 * expected

    def test_zeroth_iterate_is_heat_flow(self, grid16):
        state = band_limited_admissible_state(grid16, seed=8, kmax=3)
        cfg = PicardConfig(t0=0.05, n_time_nodes=9)
        u0h, abc0h, _ = picard_mod._initial_coeffs(state)
        sem_u, sem_abc = semigroup_paths(u0h, abc0h, grid16, PARAMS, cfg)
        times = cfg.times()
        for j in (0, 4, 8):
            k_sq = grid16.k_sq
            decay_u = np.exp(-PARAMS.nu * k_sq * times[j])
            decay_s = np.exp(-(PARAMS.kappa * k_sq + 2.0 * PARAMS.k) * times[j])
            assert np.max(np.abs(sem_u[j] - decay_u * u0h)) == 0.0
            assert np.max(np.abs(sem_abc[j] - decay_s * abc0h)) == 0.0

    def test_fixed_point_reapplication(self, grid16):
        state = band_limited_admissible_state(grid16, seed=9, kmax=3,
                                              amp=0.05, u_amp=0.05)
        cfg = PicardConfig(t0=0.05, n_time_nodes=33, tol=1e-11, max_iter=40)
        traj, hist = picard_iterate(state, PARAMS, cfg)
        u0h, abc0h, rho0h = picard_mod._initial_coeffs(state)
        nu_, nabc, nrho = apply_map(traj.u, traj.abc, traj.rho,
                                    u0h, abc0h, rho0h, grid16, PARAMS, cfg)
        times = cfg.times()
        change = composite_norm(grid16, nu_ - traj.u, nabc - traj.abc,
                                nrho - traj.rho, times)
        scale = composite_norm(grid16, traj.u, traj.abc, traj.rho, times)
        assert change <= 2.0 * cfg.tol * scale

    def test_agreement_with_time_stepper(self, grid16):
        state = band_limited_admissible_state(grid16, seed=10, kmax=3,
                                              amp=0.05, u_amp=0.05)
        cfg = PicardConfig(t0=0.1, n_time_nodes=129, tol=1e-11, max_iter=40)
        traj, _ = picard_iterate(state, PARAMS, cfg)
        ctl = StepControl(dt_min=1e-12, dt_max=1e-3, t_end=0.1, output_every=10**9)
        stepped = run(state, PARAMS, ctl).final_state
        mild = traj.state(cfg.n_time_nodes - 1)
        for name, fa, fb in (
            ("u", mild.planes[0:2], stepped.planes[0:2]),
            ("c", mild.planes[4], stepped.planes[4]),
            ("rho", mild.planes[5], stepped.planes[5]),
        ):
            num = np.sqrt(np.mean((fa - fb) ** 2))
            den = max(np.sqrt(np.mean(fb ** 2)), 1e-300)
            assert num / den <= 1e-4, name

    def test_stepper_gaps_are_per_field(self, grid16):
        state = band_limited_admissible_state(grid16, seed=10, kmax=3)
        planes = state.planes.copy()
        planes[4] *= 1.5
        gaps = picard_mod.stepper_gaps(SimState(state.time, grid16, planes), state)
        assert list(gaps) == ["u", "a", "b", "c", "rho"]
        assert gaps["c"] == pytest.approx(0.5, rel=1e-14)
        assert [gaps[name] for name in ("u", "a", "b", "rho")] == [0.0] * 4


class TestFusedMap:
    """`apply_map` shares one velocity transform and sums integrands under
    one kernel; it must still be the composition of the public operators."""

    def test_equals_composition_of_operators(self, grid16):
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        rng = np.random.default_rng(12)
        u = masked_noise(grid16, rng, (9, 2, 16, 16))
        abc = masked_noise(grid16, rng, (9, 3, 16, 16))
        rho = masked_noise(grid16, rng, (9, 16, 16))
        u0h = masked_noise(grid16, rng, (2, 16, 16))
        abc0h = masked_noise(grid16, rng, (3, 16, 16))
        rho0h = masked_noise(grid16, rng, (16, 16))

        got = apply_map(u, abc, rho, u0h, abc0h, rho0h, grid16, PARAMS, cfg)
        sem_u, sem_abc = semigroup_paths(u0h, abc0h, grid16, PARAMS, cfg)
        expected = (
            sem_u + op_q1(u, u, grid16, PARAMS, cfg) + op_l1(abc, grid16, PARAMS, cfg),
            sem_abc + op_q2(u, abc, grid16, PARAMS, cfg) + op_l2(rho, grid16, PARAMS, cfg),
            op_n(u, rho0h, grid16, cfg),
        )
        for g, e in zip(got, expected):
            assert g.shape == e.shape
            assert np.max(np.abs(g - e)) <= 1e-13 * np.max(np.abs(e))


class TestMapScratch:
    """`apply_map` holds its transform stacks across calls: a change of node
    count replaces them without changing any result, and nothing it
    returns aliases them."""

    @staticmethod
    def _inputs(grid, m):
        rng = np.random.default_rng(m)
        return (masked_noise(grid, rng, (m, 2, 16, 16)),
                masked_noise(grid, rng, (m, 3, 16, 16)),
                masked_noise(grid, rng, (m, 16, 16)),
                masked_noise(grid, rng, (2, 16, 16)),
                masked_noise(grid, rng, (3, 16, 16)),
                masked_noise(grid, rng, (16, 16)))

    def test_node_changes_match_fresh_scratch(self, grid16, monkeypatch):
        def apply(m):
            cfg = PicardConfig(t0=0.05, n_time_nodes=m)
            return apply_map(*self._inputs(grid16, m), grid16, PARAMS, cfg)

        shared = []
        for m in (9, 33, 9):
            shared.append(apply(m))
            held = list(picard_mod._SCRATCH._buffers.values())
            assert [buf.shape for buf in held] == [
                (m, 9, 16, 9), (m, 6, 16, 16), (m, 3, 3, 16, 16)]
            assert not any(np.shares_memory(out, buf) for out in shared[-1] for buf in held)
        for m, got in zip((9, 33, 9), shared):
            monkeypatch.setattr(picard_mod, "_SCRATCH", _Scratch())
            for g, w in zip(got, apply(m)):
                assert np.array_equal(g, w)


def _full_sobolev_sq(values, order, length, weights=None):
    """Reference Parseval sum over the full `np.fft.fft2` spectrum of real
    planes (..., c, n, n) or (..., n, n)."""
    n = values.shape[-1]
    coeffs = np.fft.fft2(values) / n ** 2
    k = 2.0 * np.pi / length * np.fft.fftfreq(n, 1.0 / n)
    bess = (1.0 + k[:, None] ** 2 + k[None, :] ** 2) ** order
    mag = np.abs(coeffs) ** 2
    if weights is not None:
        mag = np.tensordot(weights, mag, axes=([0], [1]))
    elif mag.ndim == 4:
        mag = mag.sum(axis=1)
    return length ** 2 * np.sum(bess * mag, axis=(-2, -1))


class TestHalfSpectrumNorms:
    """Hermitian-weighted half-spectrum norms equal full-spectrum Parseval
    sums, including the unpaired Nyquist column of an even grid."""

    FROB = np.array([2.0, 2.0, 0.5])

    @staticmethod
    def _paths(grid, seed):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((9, 2, grid.n, grid.n)),
                rng.standard_normal((9, 3, grid.n, grid.n)),
                1.0 + 0.3 * rng.standard_normal((9, grid.n, grid.n)))

    def test_nyquist_column_carries_energy(self, grid16):
        u, _, _ = self._paths(grid16, 13)
        assert np.min(np.abs(rfft2(u)[..., grid16.n // 2])) > 0.0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_sobolev_sq_matches_full_spectrum(self, grid16, order):
        u, abc, rho = self._paths(grid16, 13)
        L = grid16.length
        for values, weights in ((u, None), (abc, self.FROB), (rho, None)):
            got = picard_mod._sobolev_sq(grid16, rfft2(values), order, weights)
            ref = _full_sobolev_sq(values, order, L, weights)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)

    def test_composite_norm_matches_full_spectrum(self, grid16):
        u, abc, rho = self._paths(grid16, 14)
        L = grid16.length
        times = PicardConfig(t0=0.1, n_time_nodes=9).times()
        u_ref = (np.sqrt(np.max(_full_sobolev_sq(u, 2, L)))
                 + np.sqrt(np.trapezoid(_full_sobolev_sq(u, 3, L), times)))
        sigma_ref = (np.sqrt(np.max(_full_sobolev_sq(abc, 1, L, self.FROB)))
                     + np.sqrt(np.trapezoid(_full_sobolev_sq(abc, 2, L, self.FROB), times)))
        rho_ref = np.max(np.mean(np.abs(rho), axis=(-2, -1)) * L ** 2
                         + np.sqrt(_full_sobolev_sq(rho, 1, L)))
        ref = u_ref + sigma_ref + rho_ref
        got = composite_norm(grid16, rfft2(u), rfft2(abc), rfft2(rho), times)
        assert abs(got - ref) <= 1e-12 * ref


class TestContraction:
    def test_two_step_convergence_reports_zero(self, grid16):
        state = uniform_state(grid16, 0.0, 1.0)
        cfg = PicardConfig(t0=0.1, n_time_nodes=65, tol=1e-12)
        _, hist = picard_iterate(state, PARAMS, cfg)
        assert contraction_estimate(hist) == 0.0

    def test_requires_three_iterations(self):
        hist = PicardHistory(diffs=[1.0, 0.5])
        with pytest.raises(ValueError):
            contraction_estimate(hist)

    def test_geometric_mean(self):
        hist = PicardHistory(diffs=[1.0, 0.2, 0.04, 0.008])
        assert contraction_estimate(hist) == pytest.approx(0.2, rel=1e-12)

    def test_divergence_raises_with_ratio(self, grid16):
        state = band_limited_admissible_state(grid16, seed=11, kmax=3,
                                              amp=0.5, u_amp=3.0)
        cfg = PicardConfig(t0=50.0, n_time_nodes=65, tol=1e-12, max_iter=12)
        with pytest.raises(PicardDivergenceError) as exc:
            picard_iterate(state, PARAMS, cfg)
        hist = exc.value.history
        assert len(hist.diffs) >= 2
        assert hist.ratios[-1] >= 1.0

    def test_halving_horizon_does_not_worsen_contraction(self, grid16):
        ratios = {}
        for t0 in (0.2, 0.1):
            acc = []
            for seed in (21, 22, 23):
                state = band_limited_admissible_state(grid16, seed=seed, kmax=3,
                                                      amp=0.05, u_amp=0.05)
                cfg = PicardConfig(t0=t0, n_time_nodes=65, tol=1e-13, max_iter=60)
                _, hist = picard_iterate(state, PARAMS, cfg)
                acc.append(contraction_estimate(hist))
            ratios[t0] = np.mean(acc)
        assert ratios[0.1] <= ratios[0.2] * (1.0 + 1e-6)
