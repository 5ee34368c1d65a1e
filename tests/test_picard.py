import dataclasses
import tracemalloc
import warnings

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
from oldb2d import spectral
from oldb2d.checks import band_limited_admissible_state
from oldb2d.picard import (
    PicardHistory,
    apply_map,
    composite_norm,
    semigroup_paths,
)
from oldb2d.spectral import dealias, irfft2, rfft2
from oldb2d.config import band_limited_random, build_initial, parse_config

from conftest import in_threads, state_of
from oracles import mild_map, relaxation_exact

TWO_PI = 2.0 * np.pi
PARAMS = PhysParams(nu=0.01, kappa=0.01, k=1.0, bigK=1.0)
KC = 16 // 3 + 1  # the kept width of a path at n=16


def uniform_state(grid, c0, rho0):
    return state_of(grid, c=c0, rho=rho0)


def masked_noise(grid, rng, shape):
    """The dealiased spectrum, at the kept width, of real noise of `shape`."""
    return dealias(grid, rng.standard_normal(shape))


@pytest.fixture(scope="module")
def grid16():
    return make_grid(16, TWO_PI)


PLANE_GROUPS = {"u": slice(0, 2), "abc": slice(2, 5), "rho": 5}


def path_of(m, **planes):
    """A kept-width path at n=16 over m nodes that holds the given plane
    groups, `u`, `abc` or `rho`, and zero elsewhere."""
    path = np.zeros((m, 6, 16, KC), dtype=complex)
    for name, value in planes.items():
        path[:, PLANE_GROUPS[name]] = value
    return path


def mapped(path, grid, cfg):
    """`apply_map` of `path` from zero data: its velocity planes are
    Q1(u, u) + L1(sigma), its stress planes Q2(u, sigma) + L2(rho), its
    density plane N(u, rho)."""
    return apply_map(path, np.zeros((6, 16, KC), dtype=complex), grid, PARAMS, cfg)


class TestQ1:
    """Q1, the map's velocity planes of a path with zero stress.  The map
    reads grad u as grad v, so Q1(u, v) with v != u is not formed: Q1 is
    tested as the quadratic form Q(u) = Q1(u, u)."""

    def test_zero_arguments(self, grid16):
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        rng = np.random.default_rng(0)
        path = path_of(9, rho=masked_noise(grid16, rng, (9, 16, 16)))
        assert np.max(np.abs(mapped(path, grid16, cfg)[:, 0:2])) == 0.0

    def test_steady_shear_self_advection(self, grid16):
        # u = (sin y, 0): u.grad(u) = 0, so Q1(u, u) vanishes.
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        _, y = grid16.nodes()
        uh = dealias(grid16, np.stack([np.sin(y), np.zeros_like(y)]))
        assert np.max(np.abs(mapped(path_of(9, u=uh), grid16, cfg)[:, 0:2])) <= 1e-15

    def test_bilinearity(self, grid16):
        """Q(3 u) = 9 Q(u), and the parallelogram law
        Q(u + w) + Q(u - w) = 2 Q(u) + 2 Q(w)."""
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        rng = np.random.default_rng(1)
        u = masked_noise(grid16, rng, (9, 2, 16, 16))
        w = masked_noise(grid16, rng, (9, 2, 16, 16))

        def q(v):
            return mapped(path_of(9, u=v), grid16, cfg)[:, 0:2]

        base = q(u)
        scale = np.max(np.abs(base)) + 1e-300
        assert np.max(np.abs(q(3.0 * u) - 9.0 * base)) <= 1e-12 * scale
        parallelogram = q(u + w) + q(u - w) - 2.0 * (base + q(w))
        assert np.max(np.abs(parallelogram)) <= 1e-12 * scale


class TestL1:
    """L1, the map's velocity planes of a path with zero velocity."""

    def test_isotropic_stress_annihilated(self, grid16):
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        rng = np.random.default_rng(2)
        rho = masked_noise(grid16, rng, (9, 16, 16))
        abc = np.zeros((9, 3, 16, KC), dtype=complex)
        abc[:, 2] = 2.0 * rho  # sigma = rho * I
        assert np.max(np.abs(mapped(path_of(9, abc=abc), grid16, cfg)[:, 0:2])) <= 1e-14

    def test_zero(self, grid16):
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        assert np.max(np.abs(mapped(path_of(9), grid16, cfg)[:, 0:2])) == 0.0

    def test_single_mode_closed_form(self, grid16):
        # Time-constant sigma with a single b-mode: per mode the Duhamel
        # integral is K (1 - exp(-nu |k|^2 t)) / (nu |k|^2) P(div sigma).
        t0 = 0.2
        cfg = PicardConfig(t0=t0, n_time_nodes=1025)
        x, y = grid16.nodes()
        b = np.cos(2 * x + y)
        abc = np.zeros((cfg.n_time_nodes, 3, 16, KC), dtype=complex)
        abc[:, 1] = dealias(grid16, b)

        got = mapped(path_of(cfg.n_time_nodes, abc=abc), grid16, cfg)[-1, 0:2]

        kx, ky, ikx, iky, k_sq = (grid16.at(table, got) for table in (
            grid16.kx, grid16.ky, grid16.ikx, grid16.iky, grid16.k_sq))
        f1 = ikx * 0.0 + iky * abc[0, 1]
        f2 = ikx * abc[0, 1]
        kd = (kx * f1 + ky * f2) * grid16.at(grid16.inv_k_sq_d, got)
        p1, p2 = f1 - kx * kd, f2 - ky * kd
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(
                k_sq > 0,
                (1.0 - np.exp(-PARAMS.nu * k_sq * t0)) / (PARAMS.nu * k_sq),
                t0,
            )
        expected = PARAMS.bigK * factor * np.stack([p1, p2])
        err = np.max(np.abs(got - expected))
        assert err <= 1e-8 * max(np.max(np.abs(expected)), 1e-300)


class TestQ2:
    """Q2, the map's stress planes of a path with zero density."""

    def test_zero_arguments(self, grid16):
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        rng = np.random.default_rng(3)
        u = masked_noise(grid16, rng, (9, 2, 16, 16))
        abc = masked_noise(grid16, rng, (9, 3, 16, 16))
        assert np.max(np.abs(mapped(path_of(9, abc=abc), grid16, cfg)[:, 2:5])) == 0.0
        assert np.max(np.abs(mapped(path_of(9, u=u), grid16, cfg)[:, 2:5])) == 0.0

    def test_integrand_matches_dynamics(self, grid16):
        # The matrix-form assembly must agree with the strain-form stress
        # rate once relaxation and diffusion are removed, and the density
        # source 4k rho, which both hold in c, is taken from both.
        from oldb2d import rates

        state = band_limited_admissible_state(grid16, seed=4, kmax=3)
        sh = dealias(grid16, state.planes)
        integrand = picard_mod._integrands(sh[None], grid16, PARAMS)[0, 2:5]
        lin = -(PARAMS.kappa * grid16.at(grid16.k_sq, sh)) - 2.0 * PARAMS.k
        expected = rfft2(rates(state, PARAMS)[2:5], KC) - lin * sh[2:5]
        integrand[2] -= 4.0 * PARAMS.k * sh[5]
        expected[2] -= 4.0 * PARAMS.k * rfft2(state.planes[5], KC)
        scale = np.max(np.abs(expected)) + 1e-300
        assert np.max(np.abs(integrand - expected)) <= 1e-12 * scale


class TestL2:
    """L2, the map's stress planes of a path with zero velocity and
    stress."""

    def test_uniform_density(self, grid16):
        t0 = 0.1
        cfg = PicardConfig(t0=t0, n_time_nodes=1025)
        rho0 = 1.3
        rho = np.zeros((cfg.n_time_nodes, 16, KC), dtype=complex)
        rho[:, 0, 0] = rho0
        out = mapped(path_of(cfg.n_time_nodes, rho=rho), grid16, cfg)[:, 2:5]
        c_mode = out[-1, 2, 0, 0].real
        expected = 2.0 * rho0 * (1.0 - np.exp(-2.0 * PARAMS.k * t0))
        assert abs(c_mode - expected) <= 1e-8 * expected
        assert np.max(np.abs(out[:, 0])) == 0.0
        assert np.max(np.abs(out[:, 1])) == 0.0

    def test_zero(self, grid16):
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        assert np.max(np.abs(mapped(path_of(9), grid16, cfg)[:, 2:5])) == 0.0

    def test_single_mode_closed_form(self, grid16):
        t0 = 0.1
        cfg = PicardConfig(t0=t0, n_time_nodes=1025)
        x, y = grid16.nodes()
        rho_vals = np.cos(x + 2 * y)
        rho = np.broadcast_to(dealias(grid16, rho_vals), (cfg.n_time_nodes, 16, KC)).copy()
        out = mapped(path_of(cfg.n_time_nodes, rho=rho), grid16, cfg)[:, 2:5]
        beta = PARAMS.kappa * grid16.at(grid16.k_sq, rho) + 2.0 * PARAMS.k
        expected_c = 2.0 * rho[0] * 2.0 * PARAMS.k * (1.0 - np.exp(-beta * t0)) / beta
        err = np.max(np.abs(out[-1, 2] - expected_c))
        assert err <= 1e-8 * max(np.max(np.abs(expected_c)), 1e-300)


class TestTransportMap:
    """N, the map's density plane: rho0 plus the trapezoid Duhamel integral
    of -(u.grad rho) under the unit kernel of rho's operator (0, 0)."""

    def test_zero_velocity(self, grid16):
        cfg = PicardConfig(t0=0.2, n_time_nodes=17)
        rng = np.random.default_rng(5)
        rho0 = dealias(grid16, 1.0 + 0.5 * band_limited_random(grid16, rng, 3))
        sh0 = np.zeros((6, 16, KC), dtype=complex)
        sh0[5] = rho0
        path = path_of(17, rho=masked_noise(grid16, rng, (17, 16, 16)))
        out = apply_map(path, sh0, grid16, PARAMS, cfg)[:, 5]
        for j in range(17):
            assert np.max(np.abs(out[j] - rho0 * grid16.at(grid16.mask, rho0))) <= 1e-15

    @staticmethod
    def _velocity(grid, rng, m, scale=1.0):
        """A divergence-free velocity, fixed in time, over m nodes."""
        psih = dealias(grid, band_limited_random(grid, rng, 3))
        u_single = scale * np.stack([-grid.at(grid.iky, psih) * psih,
                                     grid.at(grid.ikx, psih) * psih])
        return np.broadcast_to(u_single, (m, 2, 16, KC)).copy()

    def test_uniform_density_invariant(self, grid16):
        cfg = PicardConfig(t0=0.2, n_time_nodes=17)
        rng = np.random.default_rng(6)
        sh0 = np.zeros((6, 16, KC), dtype=complex)
        sh0[5, 0, 0] = 2.0
        path = path_of(17, u=self._velocity(grid16, rng, 17), rho=sh0[5])
        out = apply_map(path, sh0, grid16, PARAMS, cfg)[:, 5]
        assert np.max(np.abs(out - sh0[5])) <= 1e-13

    def test_integral_conservation(self, grid16):
        """With the velocity held fixed, the density plane's fixed point is
        the Crank-Nicolson transport of rho0, which keeps its mass and,
        for a divergence-free velocity, its L2 norm."""
        cfg = PicardConfig(t0=0.5, n_time_nodes=33)
        rng = np.random.default_rng(7)
        u = self._velocity(grid16, rng, 33, scale=0.25)
        sh0 = np.zeros((6, 16, KC), dtype=complex)
        sh0[5] = dealias(grid16, 1.0 + 0.5 * band_limited_random(grid16, rng, 3))
        path = path_of(33, u=u, rho=sh0[5])
        for _ in range(200):
            out = apply_map(path, sh0, grid16, PARAMS, cfg)[:, 5]
            change = np.max(np.abs(out - path[:, 5]))
            path[:, 5] = out
            if change <= 1e-15 * np.max(np.abs(out)):
                break
        assert change <= 1e-15 * np.max(np.abs(out))
        mass0 = out[0, 0, 0].real
        # Parseval over the half spectrum: Hermitian weights count each
        # conjugate pair once per member.
        weights = grid16.at(grid16.weights, out)
        l2_0 = np.sum(weights * np.abs(out[0]) ** 2)
        for j in (16, 32):
            assert abs(out[j, 0, 0].real - mass0) <= 1e-8 * abs(mass0)
            assert abs(np.sum(weights * np.abs(out[j]) ** 2) - l2_0) <= 1e-8 * l2_0

    def test_integrand_matches_dynamics(self, grid16):
        # The density integrand is the density rate: rho's operator is
        # (0, 0), so the rate has no linear part to remove.
        from oldb2d import rates

        state = band_limited_admissible_state(grid16, seed=4, kmax=3)
        sh = dealias(grid16, state.planes)
        integrand = picard_mod._integrands(sh[None], grid16, PARAMS)[0, 5]
        expected = rfft2(rates(state, PARAMS)[5], KC)
        scale = np.max(np.abs(expected)) + 1e-300
        assert np.max(np.abs(integrand - expected)) <= 1e-12 * scale


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
        assert np.max(np.abs(traj.path[:, 0:2])) == 0.0

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
        sh0 = picard_mod._initial_coeffs(state)
        sem = semigroup_paths(sh0, grid16, PARAMS, cfg)
        times = cfg.times()
        for j in (0, 4, 8):
            k_sq = grid16.at(grid16.k_sq, sh0)
            decay_u = np.exp(-PARAMS.nu * k_sq * times[j])
            decay_s = np.exp(-(PARAMS.kappa * k_sq + 2.0 * PARAMS.k) * times[j])
            assert np.max(np.abs(sem[j, 0:2] - decay_u * sh0[0:2])) == 0.0
            assert np.max(np.abs(sem[j, 2:5] - decay_s * sh0[2:5])) == 0.0
            assert np.max(np.abs(sem[j, 5] - sh0[5])) == 0.0

    def test_fixed_point_reapplication(self, grid16):
        state = band_limited_admissible_state(grid16, seed=9, kmax=3,
                                              amp=0.05, u_amp=0.05)
        cfg = PicardConfig(t0=0.05, n_time_nodes=33, tol=1e-11, max_iter=40)
        traj, hist = picard_iterate(state, PARAMS, cfg)
        again = apply_map(traj.path, picard_mod._initial_coeffs(state), grid16, PARAMS, cfg)
        times = cfg.times()
        change = composite_norm(grid16, again - traj.path, times)
        scale = composite_norm(grid16, traj.path, times)
        assert change <= 2.0 * cfg.tol * scale

    def test_agreement_with_time_stepper(self, grid16):
        state = band_limited_admissible_state(grid16, seed=10, kmax=3,
                                              amp=0.05, u_amp=0.05)
        cfg = PicardConfig(t0=0.1, n_time_nodes=129, tol=1e-11, max_iter=40)
        traj, _ = picard_iterate(state, PARAMS, cfg)
        ctl = StepControl(dt_min=1e-12, dt_max=1e-3, t_end=0.1, output_every=10**9)
        stepped = run(state, PARAMS, ctl)
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


def assert_equals_composition(got, path, sh0, grid, cfg):
    """`got`, the map of `path` from the data `sh0`, is the composition of
    the Duhamel operators to within 1e-13 of each field's largest
    coefficient: each of its velocity, stress and density planes is the
    oracle's direct trapezoid sum of real-space products
    (`oracles.mild_map`)."""
    n = grid.n
    ref = mild_map(irfft2(path, n), irfft2(sh0, n), cfg.t0, PARAMS, grid.length)
    ref = ref[..., :grid.kept_columns]
    for planes in (slice(0, 2), slice(2, 5), 5):
        g, e = got[:, planes], ref[:, planes]
        assert g.shape == e.shape
        assert np.max(np.abs(g - e)) <= 1e-13 * np.max(np.abs(e))


class TestFusedMap:
    """`apply_map` forms every integrand of a block of nodes in one product
    pass and sums the integrands under one kernel before one quadrature; it
    must still be the composition of the Duhamel operators."""

    def test_equals_composition_of_operators(self, grid16):
        cfg = PicardConfig(t0=0.1, n_time_nodes=9)
        rng = np.random.default_rng(12)
        path = masked_noise(grid16, rng, (9, 6, 16, 16))
        sh0 = masked_noise(grid16, rng, (6, 16, 16))
        assert_equals_composition(apply_map(path, sh0, grid16, PARAMS, cfg),
                                  path, sh0, grid16, cfg)


class TestMapScratch:
    """`apply_map` works through the path in blocks of min(m,
    `_node_block`) nodes and allocates each block's stack and the product
    pass's row blocks per block: a change of node count or block size
    changes no result."""

    @staticmethod
    def _inputs(grid, m):
        rng = np.random.default_rng(m)
        return (masked_noise(grid, rng, (m, 6, 16, 16)),
                masked_noise(grid, rng, (6, 16, 16)))

    def test_node_changes_match_fresh_scratch(self, grid16):
        def apply(m):
            cfg = PicardConfig(t0=0.05, n_time_nodes=m)
            return apply_map(*self._inputs(grid16, m), grid16, PARAMS, cfg)

        block = picard_mod._node_block(grid16)
        assert block == 15  # 65 nodes are five blocks, the last one ragged
        shared = [apply(m) for m in (9, 65, 9)]
        for m, got in zip((9, 65, 9), shared):
            assert np.array_equal(got, apply(m))

    def test_ragged_node_blocks(self, grid16, monkeypatch):
        """A budget of 2 nodes at n=16 maps 9 nodes in blocks of 2, 2, 2, 2
        and 1: bit for bit the one-block map."""
        cfg = PicardConfig(t0=0.05, n_time_nodes=9)
        path, sh0 = self._inputs(grid16, 9)
        one_block = apply_map(path, sh0, grid16, PARAMS, cfg)
        monkeypatch.setattr(spectral, "_BLOCK_BYTES",
                            2 * (12 * 16 * KC * 16 + 24 * 16 * 16 * 8))
        assert picard_mod._node_block(grid16) == 2
        got = apply_map(path, sh0, grid16, PARAMS, cfg)
        assert np.array_equal(got, one_block)
        assert_equals_composition(got, path, sh0, grid16, cfg)


class TestKeptWidth:
    """The Picard path and every spectrum the map holds store only the
    columns the 2/3 rule keeps, (..., n, n//3+1)."""

    @staticmethod
    def _setup():
        cfg = parse_config("n=32\npreset=random_admissible\namplitude=0.05\nkappa=0.01\n")
        grid = make_grid(32, cfg.length)
        return grid, build_initial(cfg, grid), cfg.params, PicardConfig(t0=0.05, n_time_nodes=33)

    def test_path_holds_the_kept_columns(self):
        grid, state, params, cfg = self._setup()
        traj, _ = picard_iterate(state, params, cfg)
        assert traj.path.shape == (33, 6, 32, 32 // 3 + 1)
        sh0 = picard_mod._initial_coeffs(state)
        assert apply_map(traj.path, sh0, grid, params, cfg).shape == traj.path.shape

    def test_peak_memory_of_one_solve(self):
        """Peak traced allocation of a warm `picard_iterate` at the
        picard-compare config (n=32, 33 nodes), in units of one full-width
        (33, 6, 32, 17) complex path.  With the map in node blocks and the
        successive difference taken in place it read 1.90 units when a
        block's stack and row blocks (0.51 units) were held across calls,
        outside the traced window; allocated per block, they are inside
        it, and it read 2.01 units in blocks of 4 nodes of 10 stack planes
        each, 1.92 in blocks of 3 nodes of 12, with the density in the
        product pass, and reads 1.90 with the map one recursion that carries
        one array from block to block.  A first solve runs untraced, as for
        those readings."""
        grid, state, params, cfg = self._setup()
        n, kc = 32, 32 // 3 + 1
        unit = 33 * 6 * n * (n // 2 + 1) * 16
        block = picard_mod._node_block(grid) * (12 * n * kc * 16 + 24 * n * n * 8)
        picard_iterate(state, params, cfg)
        tracemalloc.start()
        try:
            picard_iterate(state, params, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.15 * unit + block, peak / unit

    def test_cold_peak_memory_of_one_solve(self):
        """The same solve without an untraced one before it, in blocks of 3
        nodes, whose product pass takes 12 kept-width complex stack planes
        and 24 real planes per node.  It peaks at 1.91 units; it peaked at
        1.92 with a per-operator quadrature carried from block to block, at
        2.01 in blocks of 4 nodes of 10 stack planes, with the density
        transported outside the product pass, and at 2.42 when the map's
        buffers were held after it."""
        grid, state, params, cfg = self._setup()
        unit = 33 * 6 * 32 * (32 // 2 + 1) * 16
        tracemalloc.start()
        try:
            picard_iterate(state, params, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert picard_mod._node_block(grid) == 3
        assert peak <= 3.5 * unit, peak / unit


class TestThreads:
    """The map allocates its buffers per block of nodes, so solves on two
    threads at once give the bits of the same solves one after the
    other."""

    def test_overlapping_solves_match_serial_solves(self):
        def solve(seed):
            cfg = parse_config("n=32\npreset=random_admissible\namplitude=0.05\n"
                               f"kappa=0.01\nseed={seed}\n")
            state = build_initial(cfg, make_grid(cfg.n, cfg.length))
            return picard_iterate(state, cfg.params, PicardConfig(t0=0.05, n_time_nodes=33))

        serial = [solve(seed) for seed in (0, 1)]
        assert not np.array_equal(serial[0][0].path, serial[1][0].path)
        for (got, got_hist), (want, want_hist) in zip(in_threads(solve, (0, 1)), serial):
            assert np.array_equal(got.path, want.path)
            for field in dataclasses.fields(PicardHistory):
                assert np.array_equal(getattr(got_hist, field.name),
                                      getattr(want_hist, field.name)), field.name


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
        got = composite_norm(grid16, rfft2(np.concatenate([u, abc, rho[:, None]], axis=1)),
                             times)
        assert abs(got - ref) <= 1e-12 * ref


class TestContraction:
    def test_two_step_convergence_reports_zero(self, grid16):
        state = uniform_state(grid16, 0.0, 1.0)
        cfg = PicardConfig(t0=0.1, n_time_nodes=65, tol=1e-12)
        _, hist = picard_iterate(state, PARAMS, cfg)
        assert contraction_estimate(hist) == 0.0

    @staticmethod
    def _history(diffs):
        """A history with `diffs` and the ratios `picard_iterate` logs."""
        return PicardHistory(diffs=diffs, ratios=[b / a for a, b in zip(diffs, diffs[1:])])

    def test_requires_three_iterations(self):
        with pytest.raises(ValueError):
            contraction_estimate(self._history([1.0, 0.5]))

    def test_geometric_mean(self):
        hist = self._history([1.0, 0.2, 0.04, 0.008])
        assert contraction_estimate(hist) == pytest.approx(0.2, rel=1e-12)

    def test_estimate_is_the_mean_over_the_diffs(self, grid16):
        """The logged ratios are the successive quotients of the logged
        differences, so the estimate is bit for bit their geometric mean."""
        state = band_limited_admissible_state(grid16, seed=21, kmax=3, amp=0.05, u_amp=0.05)
        _, hist = picard_iterate(state, PARAMS, PicardConfig(t0=0.1, n_time_nodes=33))
        diffs = np.array(hist.diffs)
        assert len(diffs) >= 3
        assert contraction_estimate(hist) == float(np.exp(np.mean(np.log(diffs[1:] / diffs[:-1]))))

    def test_divergence_raises_with_ratio(self, grid16):
        state = band_limited_admissible_state(grid16, seed=11, kmax=3,
                                              amp=0.5, u_amp=3.0)
        cfg = PicardConfig(t0=50.0, n_time_nodes=65, tol=1e-12, max_iter=12)
        with pytest.raises(PicardDivergenceError) as exc:
            picard_iterate(state, PARAMS, cfg)
        hist = exc.value.history
        assert len(hist.diffs) >= 2
        assert hist.ratios[-1] >= 1.0

    @pytest.mark.parametrize("t0", [1e20, 1e308])
    def test_exploding_iterate_is_a_divergence(self, grid16, t0):
        """The map has no budget of its own that could raise: an iterate
        that explodes reaches the divergence test, which raises
        PicardDivergenceError and warns of nothing."""
        state = band_limited_admissible_state(grid16, seed=11, kmax=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PicardDivergenceError, match=r"diverged \(last ratio"):
                picard_iterate(state, PARAMS, PicardConfig(t0=t0, n_time_nodes=5))

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
