import sys
import tracemalloc

import numpy as np
import pytest

from oldb2d import integrate, spectral
from oldb2d import (
    MonitorViolation,
    PhysParams,
    SimState,
    StepControl,
    StressField,
    compute_dt,
    make_grid,
    run,
    scalar_field,
    step,
    vector_field,
)
from oldb2d.checks import band_limited_admissible_state
from oldb2d.config import parse_config, build_initial
from oldb2d.dynamics import explicit_terms, pack_state

from oracles import measured_orders, relaxation_exact

TWO_PI = 2.0 * np.pi
PARAMS = PhysParams(nu=0.01, kappa=0.01, k=1.0, bigK=1.0)


def const(grid, value):
    return scalar_field(grid, np.full((grid.n, grid.n), float(value)))


def uniform_state(grid, c0, rho0):
    zero = const(grid, 0)
    return SimState(
        0.0,
        vector_field(grid, np.zeros((2, grid.n, grid.n))),
        StressField(zero, zero, const(grid, c0)),
        const(grid, rho0),
    )


class TestComputeDt:
    def test_quiescent_state_hits_dt_max(self, grid32):
        state = uniform_state(grid32, 2.0, 1.0)
        ctl = StepControl(dt_max=0.03)
        assert compute_dt(state, PARAMS, ctl) == 0.03

    def test_formula_arithmetic(self):
        grid = make_grid(64, TWO_PI)
        x, y = grid.nodes()
        u = np.stack([np.sin(y), np.zeros_like(y)])  # max speed 1
        zero = const(grid, 0)
        state = SimState(0.0, vector_field(grid, u),
                         StressField(zero, zero, const(grid, 2)), const(grid, 1))
        ctl = StepControl(cfl=0.5, dt_min=1e-10, dt_max=10.0, t_end=1.0)
        assert compute_dt(state, PARAMS, ctl) == pytest.approx(np.pi / 64, rel=1e-12)

    def test_clamped_to_bounds(self, grid32):
        rng = np.random.default_rng(0)
        for _ in range(5):
            amp = float(rng.uniform(0.0, 50.0))
            state = band_limited_admissible_state(grid32, seed=int(rng.integers(1e6)),
                                                  kmax=4, u_amp=amp)
            ctl = StepControl(cfl=0.5, dt_min=1e-4, dt_max=5e-2)
            dt = compute_dt(state, PARAMS, ctl)
            assert ctl.dt_min <= dt <= ctl.dt_max


class TestStep:
    def test_equilibrium_fixed_point(self, grid32):
        state = uniform_state(grid32, 2.0, 1.0)
        out = step(state, 1e-3, PARAMS)
        assert out.time == pytest.approx(1e-3)
        assert np.max(np.abs(out.stress.c.values - 2.0)) <= 1e-13
        assert np.max(np.abs(out.u.values)) <= 1e-13
        assert np.max(np.abs(out.rho.values - 1.0)) <= 1e-13

    def test_uniform_relaxation_exact_solution(self):
        grid = make_grid(8, TWO_PI)
        c0, rho0, T = 3.0, 1.0, 1.0
        state = uniform_state(grid, c0, rho0)
        dt = 1e-3 / PARAMS.k
        for _ in range(int(round(T / dt))):
            state = step(state, dt, PARAMS)
        expected = relaxation_exact(T, c0, rho0, PARAMS.k)
        got = float(np.max(state.stress.c.values))
        assert abs(got - expected) <= 1e-8 * expected

    def test_temporal_order_at_least_two(self):
        grid = make_grid(8, TWO_PI)
        c0, rho0, T = 3.0, 1.0, 1.0
        expected = relaxation_exact(T, c0, rho0, PARAMS.k)

        def err(dt):
            state = uniform_state(grid, c0, rho0)
            for _ in range(int(round(T / dt))):
                state = step(state, dt, PARAMS)
            return abs(float(np.max(state.stress.c.values)) - expected)

        errors = [err(dt) for dt in (0.2, 0.1, 0.05)]
        assert min(measured_orders(errors)) >= 1.9, errors

    def test_rejects_nonadmissible_state(self, grid32):
        bad = SimState(
            0.0,
            vector_field(grid32, np.zeros((2, 32, 32))),
            StressField(const(grid32, 3), const(grid32, 4), const(grid32, 5)),
            const(grid32, 1),
        )
        with pytest.raises(ValueError, match="admissible"):
            step(bad, 1e-3, PARAMS)

    def test_rejects_nonpositive_dt(self, grid32):
        state = uniform_state(grid32, 2.0, 1.0)
        with pytest.raises(ValueError, match="dt"):
            step(state, 0.0, PARAMS)

    @pytest.mark.parametrize("dt", [np.inf, np.nan])
    def test_rejects_nonfinite_dt(self, grid32, dt):
        state = uniform_state(grid32, 2.0, 1.0)
        with pytest.raises(ValueError, match="dt"):
            step(state, dt, PARAMS)


def reference_advance(grid, params, sh, dt):
    """SSP-RK3 written out with fresh six-plane factors and one temporary per
    operation, in the association order `_advance` must reproduce."""
    ksq, mask = grid.k_sq, grid.mask
    lin = np.stack([-params.nu * ksq] * 2
                   + [-(params.kappa * ksq + 2.0 * params.k)] * 3
                   + [np.zeros_like(ksq)])
    lin = np.where(mask, lin, 0.0)
    e_full, e_mid, e_back = (np.exp(lin * tau) * mask for tau in (dt, 0.5 * dt, -0.5 * dt))

    n0 = explicit_terms(grid, params, sh)
    s1 = e_full * (sh + dt * n0)
    n1 = explicit_terms(grid, params, s1)
    s2 = 0.75 * e_mid * sh + 0.25 * e_back * (s1 + dt * n1)
    n2 = explicit_terms(grid, params, s2)
    out = (e_full * sh + 2.0 * e_mid * (s2 + dt * n2)) / 3.0

    kd = (grid.kx * out[0] + grid.ky * out[1]) * grid.inv_k_sq_d
    out[0] -= grid.kx * kd
    out[1] -= grid.ky * kd
    return out


def count_make_grid(monkeypatch):
    """Count `make_grid` calls under every name an `oldb2d` module bound it to."""
    calls = []
    original = spectral.make_grid

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "oldb2d" or name.startswith("oldb2d.")) and \
                getattr(module, "make_grid", None) is original:
            monkeypatch.setattr(module, "make_grid", counted)
    return calls


class TestAdvance:
    def _state(self, n):
        cfg = parse_config(f"n={n}\npreset=random_admissible\nseed=11\namplitude=0.5\n")
        grid = make_grid(n, cfg.length)
        return grid, cfg.params, pack_state(build_initial(cfg, grid))

    def test_bit_identical_to_reference(self):
        grid, params, sh = self._state(32)
        integrate._advance(grid, params, sh, 2e-3)
        for dt in (2e-3, 3.7e-3):  # a memo hit, then a miss
            got = integrate._advance(grid, params, sh, dt)
            assert np.array_equal(got, reference_advance(grid, params, sh, dt))
            sh = got

    def test_one_factor_entry_and_no_grid_builds(self, monkeypatch):
        cfg = parse_config("n=32\npreset=random_admissible\nseed=4\namplitude=2.0\n"
                           "cfl=0.2\ndt_max=1.0\nt_end=0.2\n")
        grid = make_grid(32, cfg.length)
        initial = build_initial(cfg, grid)
        calls = count_make_grid(monkeypatch)
        before = integrate._multipliers.cache_info()
        traj = run(initial, cfg.params, cfg.control, cfg.monitors)
        after = integrate._multipliers.cache_info()

        steps = len(traj.records) - 1
        assert len(np.unique(np.round(np.diff(traj.times), 12))) >= 5
        assert after.currsize <= 1
        # One lookup per step: the benchmark counts steps from these.
        assert (after.hits + after.misses) - (before.hits + before.misses) == steps
        assert calls == []

    def test_transient_memory_of_one_step(self):
        """Peak traced allocation of one step at n=128, in packed-state units
        (6 half-spectrum planes).  Stages built in place and the single
        derivative buffer keep it near 7 units; one fresh temporary per
        operation reached 13."""
        grid, params, sh = self._state(128)
        integrate._advance(grid, params, sh, 1e-3)
        tracemalloc.start()
        try:
            out = integrate._advance(grid, params, sh, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == sh.shape
        assert peak <= 10.0 * sh.nbytes, peak / sh.nbytes


class TestRun:
    def test_equilibrium_constant_diagnostics(self):
        cfg = parse_config("n=16\npreset=equilibrium\ndt_max=1e-3\nt_end=1.0\n"
                           "output_every=100\n")
        grid = make_grid(16, cfg.length)
        traj = run(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        energies = [r.energy for r in traj.records]
        assert max(energies) - min(energies) <= 1e-12 * abs(energies[0])
        gammas = [r.min_gamma for r in traj.records]
        assert max(gammas) - min(gammas) <= 1e-12
        times = traj.times
        assert np.all(np.diff(times) > 0)
        assert traj.records[0].dissipation == pytest.approx(
            traj.records[0].source, rel=1e-14
        )

    def test_taylor_green_energy_decay(self):
        cfg = parse_config("n=32\npreset=taylor_green\namplitude=1.0\n"
                           "t_end=0.5\noutput_every=10\n")
        grid = make_grid(32, cfg.length)
        traj = run(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        E0 = traj.records[0].norms["u_L2"] ** 2
        for rec in traj.records:
            expected = E0 * np.exp(-4.0 * cfg.params.nu * rec.time)
            assert rec.norms["u_L2"] ** 2 == pytest.approx(expected, rel=1e-9)
        assert min(r.min_gamma for r in traj.records) >= -1e-12

    def test_positivity_over_random_run(self):
        cfg = parse_config("n=32\npreset=random_admissible\nseed=77\n"
                           "t_end=0.5\noutput_every=10\n")
        grid = make_grid(32, cfg.length)
        traj = run(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        ceiling = max(r.c_max for r in traj.records)
        assert min(r.min_eig for r in traj.records) >= -1e-8 * max(1.0, ceiling)

    def test_rho_integrals_conserved(self):
        cfg = parse_config("n=32\npreset=random_admissible\nseed=5\n"
                           "t_end=1.0\noutput_every=20\n")
        grid = make_grid(32, cfg.length)
        traj = run(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        first, last = traj.records[0], traj.records[-1]
        span = last.time - first.time
        for key in ("rho_L1", "rho_L2"):
            drift = abs(last.norms[key] - first.norms[key]) / first.norms[key]
            assert drift <= 1e-8 * max(1.0, span)

    def test_overflow_monitor(self):
        cfg = parse_config("n=16\npreset=equilibrium\nc_ceiling=1.0\nt_end=0.1\n")
        grid = make_grid(16, cfg.length)
        state = build_initial(cfg, grid)
        with pytest.raises(MonitorViolation) as exc:
            run(state, cfg.params, cfg.control, cfg.monitors)
        assert exc.value.kind == "overflow"

    def test_dt_underflow_monitor(self):
        cfg = parse_config("n=16\npreset=random_admissible\namplitude=100.0\n"
                           "dt_min=0.1\ndt_max=0.2\nt_end=1.0\n")
        grid = make_grid(16, cfg.length)
        state = build_initial(cfg, grid)
        with pytest.raises(MonitorViolation) as exc:
            run(state, cfg.params, cfg.control, cfg.monitors)
        assert exc.value.kind == "dt_underflow"

    def test_monitor_reports_time_and_value(self):
        cfg = parse_config("n=16\npreset=equilibrium\nc_ceiling=1.0\nt_end=0.1\n")
        grid = make_grid(16, cfg.length)
        with pytest.raises(MonitorViolation) as exc:
            run(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        assert exc.value.time > 0.0
        assert np.isfinite(exc.value.value)

    def test_keep_states_and_snapshots(self):
        cfg = parse_config("n=16\npreset=equilibrium\ndt_max=0.01\nt_end=0.1\n"
                           "keep_states=true\nsnapshot_times=0.05\n")
        grid = make_grid(16, cfg.length)
        traj = run(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        assert traj.states is not None
        assert len(traj.states) == len(traj.records)
        assert len(traj.snapshots) == 1
        t_snap, snap = traj.snapshots[0]
        assert t_snap == pytest.approx(0.05, abs=1e-9)
        assert snap.time == t_snap

    def test_record_cadence(self):
        cfg = parse_config("n=16\npreset=equilibrium\ndt_min=0.01\ndt_max=0.01\n"
                           "t_end=0.1\noutput_every=3\n")
        grid = make_grid(16, cfg.length)
        traj = run(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        # 10 steps, every third recorded, plus the initial record.
        assert len(traj.records) == 10 // 3 + 1

    def test_final_time_hit_exactly(self):
        cfg = parse_config("n=16\npreset=equilibrium\ndt_max=0.0299\nt_end=0.1\n")
        grid = make_grid(16, cfg.length)
        traj = run(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        assert traj.final_state.time == pytest.approx(0.1, abs=1e-12)


class TestDiscreteEnergyInequality:
    def test_per_step_budget_with_richardson_slack(self):
        cfg_text = ("n=32\npreset=random_admissible\nseed=9\namplitude=0.3\n"
                    "t_end=0.25\noutput_every=1\ndt_min={dt}\ndt_max={dt}\n")

        def max_excess(dt):
            cfg = parse_config(cfg_text.format(dt=dt))
            grid = make_grid(32, cfg.length)
            traj = run(build_initial(cfg, grid), cfg.params, cfg.control,
                       cfg.monitors)
            recs = traj.records
            excess = []
            for prev, cur in zip(recs, recs[1:]):
                h = cur.time - prev.time
                rate = (cur.energy - prev.energy) / h
                excess.append(rate - (-prev.dissipation + prev.source))
            return max(excess)

        e1 = max_excess(0.01)
        e2 = max_excess(0.005)
        scale = 1.0
        # The excess is O(dt): either already at rounding level or shrinking
        # by about the step ratio.
        assert e1 <= 1e-10 * scale or e2 <= 0.75 * e1 + 1e-12 * scale, (e1, e2)
