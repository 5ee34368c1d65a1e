"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figure once its assertions hold.  Criteria 3, 4, 5 and 8 share
one batch of twenty seeded runs.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from oldb2d import (
    PhysParams,
    PicardConfig,
    StepControl,
    StressField,
    apriori_ledger,
    bound_check,
    contraction_estimate,
    determinant_residual,
    ddx,
    divergence,
    heat_semigroup,
    leray_project,
    make_grid,
    picard_iterate,
    run,
    scalar_field,
    rates,
    sim_state,
    vector_field,
)
from oldb2d import determinant_rhs
from oldb2d.diagnostics import series
from oldb2d.checks import band_limited_admissible_state
from oldb2d.cli import main as cli_main
from oldb2d.config import parse_config, build_initial
from oldb2d.picard import _sobolev_sq
from oldb2d.spectral import irfft2, rfft2

from oracles import measured_orders, relaxation_exact

TWO_PI = 2.0 * np.pi


def report(num, detail):
    print(f"\n[acceptance {num}] PASS: {detail}")


@pytest.fixture(scope="module")
def positivity_batch():
    """Twenty seeded random_admissible runs at n=64, T=2/k, kappa=0.01."""
    runs = []
    t_start = time.perf_counter()
    for seed in range(20):
        cfg = parse_config(
            f"n=64\npreset=random_admissible\nseed={seed}\nkappa=0.01\n"
            "t_end=2.0\noutput_every=2\n"
        )
        grid = make_grid(cfg.n, cfg.length)
        initial = build_initial(cfg, grid)
        traj = run(initial, cfg.params, cfg.control, cfg.monitors)
        runs.append((cfg, initial, traj))
    elapsed = time.perf_counter() - t_start
    return runs, elapsed


class TestCriterion1:
    def test_uniform_relaxation_exact_solution(self):
        k = 1.0
        params = PhysParams(nu=0.01, kappa=0.01, k=k, bigK=1.0)
        c0, rho0, T = 3.0, 1.0, 5.0 / k
        dt = 1e-3 / k
        grid = make_grid(32, TWO_PI)
        zero = scalar_field(grid, np.zeros((32, 32)))
        state = sim_state(
            0.0,
            vector_field(grid, np.zeros((2, 32, 32))),
            StressField(zero, zero, scalar_field(grid, np.full((32, 32), c0))),
            scalar_field(grid, np.full((32, 32), rho0)),
        )
        ctl = StepControl(dt_min=dt, dt_max=dt, t_end=T, output_every=10**9)
        t0 = time.perf_counter()
        traj = run(state, params, ctl)
        elapsed = time.perf_counter() - t0
        expected = relaxation_exact(T, c0, rho0, k)
        got = float(np.max(traj.final_state.stress.c.values))
        rel = abs(got - expected) / expected
        assert rel <= 1e-8, rel
        assert elapsed < 10.0, elapsed
        report(1, f"c(5/k) relative error {rel:.2e} (tol 1e-8), {elapsed:.1f}s")


class TestCriterion2:
    def test_taylor_green_energy_regression(self):
        cfg = parse_config(
            "n=64\npreset=taylor_green\namplitude=1.0\nnu=0.01\n"
            "t_end=1.0\noutput_every=100000\n"
        )
        grid = make_grid(cfg.n, cfg.length)
        initial = build_initial(cfg, grid)
        t0 = time.perf_counter()
        traj = run(initial, cfg.params, cfg.control, cfg.monitors)
        elapsed = time.perf_counter() - t0
        E0 = traj.records[0].norms["u_L2"] ** 2
        u1, u2 = traj.final_state.u.values
        ET = float(np.mean(u1 * u1 + u2 * u2)) * grid.area
        expected = E0 * np.exp(-4.0 * cfg.params.nu)
        rel = abs(ET - expected) / expected
        assert rel <= 1e-6, rel
        assert elapsed < 30.0, elapsed
        report(2, f"kinetic energy at t=1 relative error {rel:.2e} (tol 1e-6), "
                  f"{elapsed:.1f}s")


class TestCriterion3:
    def test_discrete_positivity(self, positivity_batch):
        runs, elapsed = positivity_batch
        worst = np.inf
        ceiling = 0.0
        for _, _, traj in runs:
            worst = min(worst, min(r.min_eig for r in traj.records))
            ceiling = max(ceiling, max(r.c_max for r in traj.records))
        floor = -1e-8 * max(1.0, ceiling)
        assert worst >= floor, (worst, floor)
        assert elapsed < 300.0, elapsed
        report(3, f"min eigenvalue over 20 runs {worst:.3e} >= {floor:.1e}, "
                  f"batch {elapsed:.0f}s")


class TestCriterion4:
    def test_gamma_maximum_principle(self, positivity_batch):
        runs, _ = positivity_batch
        worst = np.inf
        ceiling = 0.0
        for _, _, traj in runs:
            worst = min(worst, min(r.min_gamma for r in traj.records))
            ceiling = max(ceiling, max(r.c_max for r in traj.records))
        floor = -1e-8 * max(1.0, ceiling)
        assert worst >= floor, (worst, floor)
        report(4, f"min gamma over 20 runs {worst:.3e} >= {floor:.1e}")


class TestCriterion5:
    def test_energy_budget_hard_gate(self, positivity_batch):
        runs, _ = positivity_batch
        worst_ratio = 0.0
        for cfg, initial, traj in runs:
            ledger = apriori_ledger(initial, cfg.params, traj.records[-1].time,
                                    cfg.constant_c)
            row = bound_check(series(traj.records), ledger, cfg.params)[0]
            assert row.hard and row.passed, (row.observed, row.bound)
            worst_ratio = max(worst_ratio, row.ratio)
        report(5, f"energy budget observed/R0 <= {worst_ratio:.6f} on all runs "
                  "(hard gate, tol 1e-6)")

    def test_per_step_differential_form(self):
        def max_excess(dt):
            cfg = parse_config(
                "n=64\npreset=random_admissible\nseed=0\nkappa=0.01\n"
                f"t_end=0.2\noutput_every=1\ndt_min={dt}\ndt_max={dt}\n"
            )
            grid = make_grid(cfg.n, cfg.length)
            traj = run(build_initial(cfg, grid), cfg.params, cfg.control,
                       cfg.monitors)
            excess = []
            for prev, cur in zip(traj.records, traj.records[1:]):
                h = cur.time - prev.time
                excess.append((cur.energy - prev.energy) / h
                              - (-prev.dissipation + prev.source))
            return max(excess)

        e1 = max_excess(0.01)
        e2 = max_excess(0.005)
        # Richardson: the excess is O(dt), so it either sits at rounding
        # level or shrinks with the step.
        assert e1 <= 1e-10 or e2 <= 0.75 * e1 + 1e-12, (e1, e2)
        report(5, f"per-step energy excess O(dt): {e1:.3e} -> {e2:.3e} "
                  "under halving")


class TestCriterion6:
    PARAMS0 = PhysParams(nu=0.01, kappa=0.0, k=1.0, bigK=1.0)

    def test_residual_convergence_order(self):
        grid = make_grid(32, TWO_PI)
        state = band_limited_admissible_state(grid, seed=101, kmax=3)
        t_mid = 0.1

        def residual(dt):
            ctl = StepControl(dt_min=dt, dt_max=dt, t_end=t_mid + 2 * dt,
                              snapshot_times=(t_mid - dt, t_mid, t_mid + dt))
            traj = run(state, self.PARAMS0, ctl)
            window = [snap for _, snap in traj.snapshots]
            assert len(window) == 3
            return determinant_residual(window, self.PARAMS0)

        errs = [residual(dt) for dt in (0.02, 0.01, 0.005)]
        orders = measured_orders(errs)
        assert min(orders) >= 1.9, (errs, orders)
        report(6, f"determinant residual orders {['%.2f' % o for o in orders]} "
                  f"(>= 1.9), residuals {['%.2e' % e for e in errs]}")

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_cancellation_identity_pointwise(self, seed):
        grid = make_grid(32, TWO_PI)
        state = band_limited_admissible_state(grid, seed=seed, kmax=3)
        a, b, c = state.planes[2:5]
        da, db, dc = rates(state, self.PARAMS0)[2:5]
        combo = 0.5 * c * dc - 2.0 * a * da - 2.0 * b * db
        law = determinant_rhs(state, self.PARAMS0).values
        gap = float(np.max(np.abs(combo - law)))
        assert gap <= 1e-10, gap
        if seed == 43:
            report(6, f"cancellation identity pointwise gap {gap:.2e} (tol 1e-10)")


class TestCriterion7:
    K = 1.0
    PARAMS = PhysParams(nu=0.01, kappa=0.01, k=K, bigK=1.0)

    @staticmethod
    def _small_smooth_state(grid, seed):
        """u0 with W^{2,2} norm at most 0.1, sigma0 near rho0*I."""
        from oldb2d.config import band_limited_random

        rng = np.random.default_rng(seed)
        rho_vals = 1.0 + 0.1 * band_limited_random(grid, rng, 3)
        a = 0.02 * band_limited_random(grid, rng, 3)
        b = 0.02 * band_limited_random(grid, rng, 3)
        c = 2.0 * rho_vals + 0.02 * band_limited_random(grid, rng, 3)
        psih = rfft2(band_limited_random(grid, rng, 3))
        u = irfft2(np.stack([-grid.iky * psih, grid.ikx * psih]), grid.n)
        uh = rfft2(u)
        w22 = float(np.sqrt(_sobolev_sq(grid, uh[None], 2)[0]))
        u *= 0.1 / w22
        state = sim_state(
            0.0,
            vector_field(grid, u),
            StressField(scalar_field(grid, a), scalar_field(grid, b),
                        scalar_field(grid, c)),
            scalar_field(grid, rho_vals),
        )
        uh = rfft2(state.u.values)
        assert np.sqrt(_sobolev_sq(grid, uh[None], 2)[0]) <= 0.1 + 1e-12
        return state

    def test_agreement_and_contraction(self):
        grid = make_grid(32, TWO_PI)
        t0 = 0.1 / self.K
        worst_gap = 0.0
        ratios_full = []
        ratios_half = []
        for seed in range(5):
            state = self._small_smooth_state(grid, 300 + seed)
            cfg = PicardConfig(t0=t0, n_time_nodes=129, tol=1e-12, max_iter=50)
            traj, hist = picard_iterate(state, self.PARAMS, cfg)
            ratios_full.append(contraction_estimate(hist))

            cfg_half = PicardConfig(t0=0.5 * t0, n_time_nodes=65, tol=1e-12,
                                    max_iter=50)
            _, hist_half = picard_iterate(state, self.PARAMS, cfg_half)
            ratios_half.append(contraction_estimate(hist_half))

            ctl = StepControl(dt_min=1e-12, dt_max=5e-4, t_end=t0,
                              output_every=10**9)
            stepped = run(state, self.PARAMS, ctl).final_state
            mild = traj.state(cfg.n_time_nodes - 1)
            for fa, fb in (
                (mild.u.values, stepped.u.values),
                (mild.stress.a.values, stepped.stress.a.values),
                (mild.stress.b.values, stepped.stress.b.values),
                (mild.stress.c.values, stepped.stress.c.values),
                (mild.rho.values, stepped.rho.values),
            ):
                num = np.sqrt(np.mean((fa - fb) ** 2))
                den = max(np.sqrt(np.mean(fb ** 2)), 1e-300)
                worst_gap = max(worst_gap, num / den)

        assert worst_gap <= 1e-5, worst_gap
        mean_full = float(np.mean(ratios_full))
        mean_half = float(np.mean(ratios_half))
        assert mean_full < 0.5, mean_full
        assert mean_half <= mean_full * (1.0 + 1e-9), (mean_half, mean_full)
        report(7, f"picard/stepper worst field gap {worst_gap:.2e} (tol 1e-5); "
                  f"contraction {mean_full:.3f} -> {mean_half:.3f} at t0/2")


class TestCriterion8:
    def test_density_transport_invariants(self, positivity_batch):
        runs, _ = positivity_batch
        worst = 0.0
        for _, _, traj in runs:
            first, last = traj.records[0], traj.records[-1]
            span = last.time - first.time
            for key in ("rho_L1", "rho_L2"):
                drift = abs(last.norms[key] - first.norms[key]) / first.norms[key]
                worst = max(worst, drift / max(span, 1e-300))
        assert worst <= 1e-8, worst
        report(8, f"rho integral drift <= {worst:.2e} per unit time (tol 1e-8)")


class TestCriterion9:
    def test_spectral_core_exactness(self):
        grid = make_grid(64, TWO_PI)
        rng = np.random.default_rng(7)

        v = vector_field(grid, rng.standard_normal((2, 64, 64)))
        pv = leray_project(v)
        scale = np.sqrt(np.sum(grid.weights * np.abs(v.coeffs) ** 2))
        div_defect = float(np.max(np.abs(divergence(pv).coeffs))) / scale
        idem_defect = float(
            np.max(np.abs(leray_project(pv).coeffs - pv.coeffs))
        ) / scale
        assert div_defect <= 1e-13 and idem_defect <= 1e-13

        f = scalar_field(grid, rng.standard_normal((64, 64)))
        whole = heat_semigroup(f, 0.03, 1.5, 0.8)
        split = heat_semigroup(heat_semigroup(f, 0.03, 1.5, 0.3), 0.03, 1.5, 0.5)
        semi_defect = float(np.max(np.abs(whole.values - split.values)))
        semi_defect /= max(1.0, float(np.max(np.abs(f.values))))
        assert semi_defect <= 1e-13

        x, y = grid.nodes()
        g = scalar_field(grid, np.sin(5 * x) * np.cos(3 * y))
        exact = 5.0 * np.cos(5 * x) * np.cos(3 * y)
        deriv_defect = float(np.max(np.abs(ddx(g, 1).values - exact)))
        deriv_defect /= float(np.max(np.abs(exact)))
        assert deriv_defect <= 1e-13

        report(9, f"projector {max(div_defect, idem_defect):.1e}, semigroup "
                  f"{semi_defect:.1e}, derivative {deriv_defect:.1e} (all <= 1e-13)")


class TestCriterion10:
    def test_ledger_sanity_and_cli(self, tmp_path):
        grid = make_grid(32, TWO_PI)
        state = band_limited_admissible_state(grid, seed=55, kmax=4)
        params = PhysParams(nu=0.01, kappa=0.01, k=1.0, bigK=1.0)
        led = apriori_ledger(state, params, 1.0)
        assert led.R0.units == "cm^4 sec^-2"
        assert led.B.units == "dimensionless"

        rng = np.random.default_rng(8)
        for _ in range(6):
            draw = PhysParams(
                nu=float(rng.uniform(0.005, 0.2)),
                kappa=float(rng.uniform(0.005, 0.2)),
                k=float(rng.uniform(0.1, 3.0)),
                bigK=float(rng.uniform(0.1, 3.0)),
            )
            T = float(rng.uniform(0.1, 2.0))
            l1 = apriori_ledger(state, draw, T)
            l2 = apriori_ledger(state, draw, 2.0 * T)
            for name, e1 in l1.entries().items():
                assert getattr(l2, name).value >= e1.value * (1 - 1e-12), name

        cfg_path = tmp_path / "default.cfg"
        cfg_path.write_text("")  # every key at its documented default
        assert cli_main(["bounds", "--config", str(cfg_path)]) == 0
        assert cli_main(["check", "--config", str(cfg_path)]) == 0
        report(10, "ledger units/monotonicity verified; bounds and check "
                   "exit 0 on the default config")
