import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from oldb2d import diagnostics, dynamics, integrate, spectral
from oldb2d import MonitorViolation, PhysParams, StepControl, make_grid, run, step
from oldb2d.checks import band_limited_admissible_state
from oldb2d.config import parse_config, build_initial
from oldb2d.dynamics import _terms, explicit_terms, pack_state, unpack_state
from oldb2d.spectral import irfft2, rfft2

from conftest import in_threads, run_collected, state_of
from oracles import measured_orders, relaxation_exact

TWO_PI = 2.0 * np.pi
PARAMS = PhysParams(nu=0.01, kappa=0.01, k=1.0, bigK=1.0)


def uniform_state(grid, c0, rho0):
    return state_of(grid, c=c0, rho=rho0)


def pass_buffers(n):
    """Bytes of the buffers one `_terms` evaluation allocates and frees at
    n: its 12-plane kept-width derivative stack, and the product pass's
    row blocks of 18 real and 6 product planes."""
    rows = min(n, spectral._BLOCK_BYTES // (18 * n * 8))
    return 12 * n * (n // 3 + 1) * 16 + (18 + 6) * rows * n * 8


class TestComputeDt:
    """`run`'s one step rule, `integrate._step_dt`."""

    def test_quiescent_state_hits_dt_max(self, grid32):
        state = uniform_state(grid32, 2.0, 1.0)
        ctl = StepControl(dt_max=0.03)
        assert integrate._step_dt(grid32, ctl, state.planes[0:2], 0.0) == 0.03

    def test_formula_arithmetic(self):
        grid = make_grid(64, TWO_PI)
        x, y = grid.nodes()
        u = np.stack([np.sin(y), np.zeros_like(y)])  # max speed 1
        ctl = StepControl(cfl=0.5, dt_min=1e-10, dt_max=10.0, t_end=1.0)
        assert integrate._step_dt(grid, ctl, u, 0.0) == pytest.approx(np.pi / 64,
                                                                      rel=1e-12)

    def test_clamped_to_bounds(self, grid32):
        rng = np.random.default_rng(0)
        for _ in range(5):
            amp = float(rng.uniform(0.0, 50.0))
            state = band_limited_admissible_state(grid32, seed=int(rng.integers(1e6)),
                                                  kmax=4, u_amp=amp)
            ctl = StepControl(cfl=0.5, dt_min=1e-4, dt_max=5e-2)
            dt = integrate._step_dt(grid32, ctl, state.planes[0:2], 0.0)
            assert ctl.dt_min <= dt <= ctl.dt_max
        # The last step ends exactly at t_end.
        assert integrate._step_dt(grid32, ctl, state.planes[0:2], 1.0 - 1e-6) == \
            pytest.approx(1e-6, rel=1e-9)

    def test_underflow_raises_at_current_time(self, grid32):
        u = np.full((2, 32, 32), 100.0)
        ctl = StepControl(dt_min=0.1, dt_max=0.2)
        with pytest.raises(MonitorViolation) as exc:
            integrate._step_dt(grid32, ctl, u, 0.25)
        assert exc.value.kind == "dt_underflow" and exc.value.time == 0.25
        assert exc.value.value == pytest.approx(0.5 * grid32.spacing / 100.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_speed_raises_nan(self, grid32, bad):
        u = np.zeros((2, 32, 32))
        u[1, 3, 4] = bad
        with pytest.raises(MonitorViolation) as exc:
            integrate._step_dt(grid32, StepControl(), u, 0.125)
        assert exc.value.kind == "nan" and exc.value.time == 0.125


class TestStep:
    def test_equilibrium_fixed_point(self, grid32):
        state = uniform_state(grid32, 2.0, 1.0)
        out = step(state, 1e-3, PARAMS)
        assert out.time == pytest.approx(1e-3)
        assert np.max(np.abs(out.planes[4] - 2.0)) <= 1e-13
        assert np.max(np.abs(out.planes[0:2])) <= 1e-13
        assert np.max(np.abs(out.planes[5] - 1.0)) <= 1e-13

    def test_uniform_relaxation_exact_solution(self):
        grid = make_grid(8, TWO_PI)
        c0, rho0, T = 3.0, 1.0, 1.0
        state = uniform_state(grid, c0, rho0)
        dt = 1e-3 / PARAMS.k
        for _ in range(int(round(T / dt))):
            state = step(state, dt, PARAMS)
        expected = relaxation_exact(T, c0, rho0, PARAMS.k)
        got = float(np.max(state.planes[4]))
        assert abs(got - expected) <= 1e-8 * expected

    def test_temporal_order_at_least_two(self):
        grid = make_grid(8, TWO_PI)
        c0, rho0, T = 3.0, 1.0, 1.0
        expected = relaxation_exact(T, c0, rho0, PARAMS.k)

        def err(dt):
            state = uniform_state(grid, c0, rho0)
            for _ in range(int(round(T / dt))):
                state = step(state, dt, PARAMS)
            return abs(float(np.max(state.planes[4])) - expected)

        errors = [err(dt) for dt in (0.2, 0.1, 0.05)]
        assert min(measured_orders(errors)) >= 1.9, errors

    def test_rejects_nonadmissible_state(self, grid32):
        bad = state_of(grid32, a=3.0, b=4.0, c=5.0, rho=1.0)
        with pytest.raises(ValueError, match="admissible"):
            step(bad, 1e-3, PARAMS)

    @pytest.mark.parametrize("plane,value", [(4, np.inf), (2, np.nan)])
    def test_rejects_nonfinite_stress(self, grid32, plane, value):
        """One +inf in c leaves min gamma finite, so the guard reads max c
        too; one nan in a makes min gamma nan."""
        bad = uniform_state(grid32, 2.0, 1.0)
        bad.planes[plane, 3, 5] = value
        with pytest.raises(ValueError, match="non-finite stress"):
            step(bad, 1e-3, PARAMS)
        with pytest.raises(ValueError, match="non-finite stress"):
            run(bad, PARAMS, StepControl(t_end=1e-3))

    def test_rejects_nonpositive_dt(self, grid32):
        state = uniform_state(grid32, 2.0, 1.0)
        with pytest.raises(ValueError, match="dt"):
            step(state, 0.0, PARAMS)

    @pytest.mark.parametrize("dt", [np.inf, np.nan])
    def test_rejects_nonfinite_dt(self, grid32, dt):
        state = uniform_state(grid32, 2.0, 1.0)
        with pytest.raises(ValueError, match="dt"):
            step(state, dt, PARAMS)


def full_width(grid, sh):
    """A kept-width spectrum (..., n, n//3+1) padded with zeros to the full
    half spectrum (..., n, n//2+1)."""
    out = np.zeros(sh.shape[:-1] + (grid.n // 2 + 1,), complex)
    out[..., :sh.shape[-1]] = sh
    return out


def assert_kept_columns(grid, got, want):
    """`got` is the kept width, bit for bit the kept columns of the
    full-width `want`, which is exactly zero beyond them."""
    kc = grid.kept_columns
    assert got.shape == want.shape[:-1] + (kc,)
    assert np.array_equal(got, want[..., :kc])
    assert np.all(want[..., kc:] == 0.0)


def reference_explicit(grid, params, sh):
    """`explicit_terms` written full width: `reference_terms` and the Leray
    projection written out."""
    nh = reference_terms(grid, params, sh, planes=False)
    project_full(grid, nh)
    return nh


def project_full(grid, vh):
    kd = (grid.kx * vh[0] + grid.ky * vh[1]) * grid.inv_k_sq_d
    vh[0] -= grid.kx * kd
    vh[1] -= grid.ky * kd


def reference_advance(grid, params, sh, dt):
    """SSP-RK3 written full width, on (6, n, n//2+1) spectra, with fresh
    six-plane factors and one temporary per operation, in the association
    order `_advance` must reproduce."""
    ksq, mask = grid.k_sq, grid.mask
    lin = np.stack([-params.nu * ksq] * 2
                   + [-(params.kappa * ksq + 2.0 * params.k)] * 3
                   + [np.zeros_like(ksq)])
    lin = np.where(mask, lin, 0.0)
    e_full, e_mid, e_back = (np.exp(lin * tau) * mask for tau in (dt, 0.5 * dt, -0.5 * dt))

    n0 = reference_explicit(grid, params, sh)
    s1 = e_full * (sh + dt * n0)
    n1 = reference_explicit(grid, params, s1)
    s2 = 0.75 * e_mid * sh + 0.25 * e_back * (s1 + dt * n1)
    n2 = reference_explicit(grid, params, s2)
    out = (e_full * sh + 2.0 * e_mid * (s2 + dt * n2)) / 3.0

    project_full(grid, out)
    return out


def count_calls(monkeypatch, module, name):
    """Record the positional arguments of every call of `module.name` under
    every name an `oldb2d` module bound it to."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if (modname == "oldb2d" or modname.startswith("oldb2d.")) and \
                getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestAdvance:
    def _state(self, n):
        cfg = parse_config(f"n={n}\npreset=random_admissible\nseed=11\namplitude=0.5\n")
        grid = make_grid(n, cfg.length)
        return grid, cfg.params, pack_state(build_initial(cfg, grid))

    def test_bit_identical_to_reference(self):
        grid, params, sh = self._state(32)
        integrate._advance(grid, params, sh, 2e-3, explicit_terms(grid, params, sh))
        for dt in (2e-3, 3.7e-3):  # a memo hit, then a miss
            got = integrate._advance(grid, params, sh, dt,
                                     explicit_terms(grid, params, sh))
            assert_kept_columns(grid, got,
                                reference_advance(grid, params, full_width(grid, sh), dt))
            sh = got

    def test_spectra_hold_the_kept_columns(self):
        """The packed state, its explicit terms and a step are all
        (6, n, n//3+1): the columns the 2/3 rule zeroes are not stored."""
        grid, params, sh = self._state(32)
        shape = (6, 32, 32 // 3 + 1)
        nh = explicit_terms(grid, params, sh)
        assert sh.shape == nh.shape == shape
        assert integrate._advance(grid, params, sh, 2e-3, nh).shape == shape

    def test_one_factor_entry_and_no_grid_builds(self, monkeypatch):
        cfg = parse_config("n=32\npreset=random_admissible\nseed=4\namplitude=2.0\n"
                           "cfl=0.2\ndt_max=1.0\nt_end=0.2\n")
        grid = make_grid(32, cfg.length)
        initial = build_initial(cfg, grid)
        calls = count_calls(monkeypatch, spectral, "make_grid")
        before = integrate._multipliers.cache_info()
        traj = run_collected(initial, cfg.params, cfg.control, cfg.monitors)
        after = integrate._multipliers.cache_info()

        steps = len(traj.records) - 1
        times = [r.time for r in traj.records]
        assert len(np.unique(np.round(np.diff(times), 12))) >= 5
        assert after.currsize <= 1
        # One lookup per step: the benchmark counts steps from these.
        assert (after.hits + after.misses) - (before.hits + before.misses) == steps
        assert calls == []

    def test_factor_entry_holds_kept_columns_per_operator(self):
        """The memo's entry is four factors of one plane per operator on the
        kept columns, 4 * 3 * n * (n//3+1) float64: six full-width planes
        per factor held 4 * 6 * n * (n//2+1)."""
        grid, params, sh = self._state(32)
        integrate._advance(grid, params, sh, 2e-3, explicit_terms(grid, params, sh))
        entry = integrate._multipliers(grid, params, 2e-3)
        assert len(entry) == 4
        assert all(f.shape == (3, 32, grid.kept_columns) for f in entry)
        assert sum(f.nbytes for f in entry) <= 4 * 3 * 32 * (32 // 3 + 1) * 8

    def test_transient_memory_of_one_step(self):
        """Peak traced allocation of one step at n=128, in packed units: one
        full-width (6, n, n//2+1) complex state, fixed whatever width the
        stepper stores.  Stages built in place at the kept width and the
        single derivative buffer keep it at 4.88 units: 1.83 beside the
        3.05 units of the derivative stack and row blocks each evaluation
        allocates (`pass_buffers`).  When those were held across calls the
        step read 1.83 units (2.50 when the stages were full width); one
        fresh full-width temporary per operation reached 13.  The bound
        sits a quarter of a kept-width state above."""
        grid, params, sh = self._state(128)
        integrate._advance(grid, params, sh, 1e-3, explicit_terms(grid, params, sh))
        tracemalloc.start()
        try:
            out = integrate._advance(grid, params, sh, 1e-3,
                                     explicit_terms(grid, params, sh))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        unit = 6 * 128 * (128 // 2 + 1) * 16
        assert out.shape == sh.shape
        assert peak <= 2.0 * unit + pass_buffers(128), peak / unit


def reference_run(initial, params, ctl):
    """`run` without its monitors, written full width in the order of a
    design that transforms each state separately for each use: `irfft2`
    for the real planes, `unpack_state` for every state it hands out, and
    full-width explicit terms for every stage (`reference_advance`).  A
    record reads the kept columns of the state, after checking that it is
    zero beyond them."""
    grid = initial.grid
    kc = grid.kept_columns
    sh = rfft2(initial.planes) * grid.mask
    t = float(initial.time)
    eps_end = 1e-12 * max(1.0, abs(ctl.t_end))
    records, snapshots = [], []
    pending = sorted(ctl.snapshot_times)

    def record(reals):
        assert np.all(sh[..., kc:] == 0.0)
        kept = sh[..., :kc].copy()
        records.append(diagnostics.make_record(
            grid, t, kept, reals, diagnostics._positivity(reals, 0.0),
            diagnostics.packed_energy(grid, params, kept, reals)))

    reals = irfft2(sh, grid.n)
    record(reals)
    step_index = 0
    while t < ctl.t_end - eps_end:
        umax = float(np.max(np.abs(reals[0:2])))
        raw = ctl.cfl * grid.spacing / max(umax, 1e-12)
        dt = min(max(raw, ctl.dt_min), ctl.dt_max, ctl.t_end - t)
        sh = reference_advance(grid, params, sh, dt)
        t += dt
        step_index += 1
        reals = irfft2(sh, grid.n)
        while pending and t >= pending[0] - eps_end:
            snapshots.append((pending.pop(0), unpack_state(grid, sh, t)))
        if step_index % ctl.output_every == 0:
            record(reals)
    return records, snapshots, unpack_state(grid, sh, t)


def same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


def assert_same_state(got, want):
    assert got.time == want.time
    assert np.array_equal(got.planes, want.planes)


def assert_same_run(traj, records, snapshots, final):
    """A trajectory of `run` has these records, snapshots and final state,
    bit for bit."""
    assert len(traj.records) == len(records)
    for got, want in zip(traj.records, records):
        for field in dataclasses.fields(diagnostics.DiagnosticsRecord):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if field.name == "norms":
                assert a == b
            else:
                assert same_float(a, b), field.name
    assert [t for t, _ in traj.snapshots] == [t for t, _ in snapshots]
    for (_, got), (_, want) in zip(traj.snapshots, snapshots):
        assert_same_state(got, want)
    assert_same_state(traj.final_state, final)


# A run-monitored-shaped config (a record every step, snapshots), a
# CFL-limited one with a single record, a cadence that skips the final
# state, and kappa = 0.
ONE_EVALUATION_CONFIGS = {
    "monitored": "n=16\npreset=random_admissible\nseed=3\namplitude=1.0\nt_end=0.05\n"
                 "output_every=1\nsnapshot_times=0.02,0.04\n",
    "cfl_limited": "n=32\npreset=random_admissible\nseed=4\namplitude=2.0\nt_end=0.03\n"
                   "output_every=1000000\nsnapshot_times=0.01\n",
    "cadence": "n=16\npreset=taylor_green\namplitude=1.0\nt_end=0.1\noutput_every=3\n"
               "snapshot_times=0.05\n",
    "kappa0": "n=16\npreset=random_admissible\nseed=2\nkappa=0\ndt_max=1e-3\n"
              "t_end=0.008\noutput_every=2\nsnapshot_times=0.004\n",
}


class TestOneEvaluationPerState:
    """`run` transforms each accepted state once: one `_terms` evaluation
    (12 planes in the x-pass, 18 in the y-pass) serves the monitors, the
    energy, a record and the next step's first stage."""

    @staticmethod
    def _setup(text):
        cfg = parse_config(text)
        grid = make_grid(cfg.n, cfg.length)
        return cfg, build_initial(cfg, grid)

    @pytest.mark.parametrize("name", ["monitored", "cfl_limited"])
    def test_exact_counts(self, monkeypatch, name):
        cfg, initial = self._setup(ONE_EVALUATION_CONFIGS[name])
        advances = count_calls(monkeypatch, integrate, "_advance")
        terms = count_calls(monkeypatch, dynamics, "_terms")
        passes = count_calls(monkeypatch, spectral, "dealiased_products")
        inverse = count_calls(monkeypatch, spectral, "irfft2")
        unpacks = count_calls(monkeypatch, dynamics, "unpack_state")
        traj = run_collected(initial, cfg.params, cfg.control, cfg.monitors)

        steps = len(advances)
        final_recorded = steps % cfg.control.output_every == 0
        assert steps >= 3
        assert len(traj.records) == 1 + steps // cfg.control.output_every
        assert final_recorded == (name == "monitored")
        # One evaluation per state that steps on, and stages 2 and 3 of
        # each step; the final state, recorded or not, needs only its six
        # real planes.
        assert len(terms) == 3 * steps
        # Inverse planes: the product pass x-passes every plane of its
        # stack and y-passes those and the y-derivatives of its first `dy`;
        # `irfft2` passes every plane it is given in both.
        given = sum(int(np.prod(args[0].shape[:-2])) for args in inverse)
        x_planes = sum(len(args[1]) for args in passes) + given
        y_planes = sum(len(args[1]) + args[2] for args in passes) + given
        assert len(passes) == len(terms)
        assert x_planes == 12 * 3 * steps + 6
        assert y_planes == 18 * 3 * steps + 6
        assert unpacks == []

    @pytest.mark.parametrize("name", sorted(ONE_EVALUATION_CONFIGS))
    def test_one_scan_and_one_ledger_per_state(self, monkeypatch, name):
        """One positivity scan and one energy ledger per accepted state serve
        the monitors and a due record; the one scan more is the admission
        check of the initial state, which `run` takes before packing it."""
        cfg, initial = self._setup(ONE_EVALUATION_CONFIGS[name])
        advances = count_calls(monkeypatch, integrate, "_advance")
        scans = count_calls(monkeypatch, diagnostics, "_positivity")
        ledgers = count_calls(monkeypatch, diagnostics, "packed_energy")
        run(initial, cfg.params, cfg.control, cfg.monitors)

        states = len(advances) + 1
        assert states >= 4
        assert len(ledgers) == states
        assert len(scans) == states + 1

    @pytest.mark.parametrize("name", sorted(ONE_EVALUATION_CONFIGS))
    def test_bit_identical_to_separate_transforms(self, name):
        cfg, initial = self._setup(ONE_EVALUATION_CONFIGS[name])
        traj = run_collected(initial, cfg.params, cfg.control, cfg.monitors)
        records, snapshots, final = reference_run(initial, cfg.params, cfg.control)
        assert len(snapshots) >= 1
        assert_same_run(traj, records, snapshots, final)

    def test_peak_memory_of_one_run(self):
        """Peak traced allocation of one warm CFL-limited run at n=128, in
        packed units: one full-width (6, n, n//2+1) complex state (six real
        planes are about one unit too), fixed whatever width the stepper
        stores; a packed state at the kept width is 0.67 units.  Each
        evaluation allocates its 12-plane kept-column stack and two row
        blocks (`pass_buffers`, 3.05 units; two blocks, the last one
        ragged) inside the measured run, which peaks at 6.53 units: 3.48
        beside them, as when they were held across calls.  The bound sits a
        third of a kept-width state above, so keeping one more such array
        alive through a step fails.  The second of two equal runs is
        measured, as for the readings above."""
        cfg, initial = self._setup("n=128\npreset=random_admissible\nseed=3\n"
                                   "amplitude=2.0\nt_end=0.03\noutput_every=1000000\n")
        unit = 6 * 128 * (128 // 2 + 1) * 16
        run(initial, cfg.params, cfg.control, cfg.monitors)
        assert spectral._BLOCK_BYTES // (18 * cfg.n * 8) < cfg.n  # two row blocks
        tracemalloc.start()
        try:
            traj = run_collected(initial, cfg.params, cfg.control, cfg.monitors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.final_state.time == pytest.approx(0.03)
        assert peak <= 3.7 * unit + pass_buffers(cfg.n), peak / unit


def reference_terms(grid, params, sh, planes):
    """`_terms` written full width, from full-width coefficients `sh`: the
    whole (12, n, n//2+1) stack of sh and its x-derivatives through the
    x-pass of `irfft2`, the y-derivatives formed from the x-passed sh, all
    18 planes through the y-pass, the products on the whole grid, `rfft2`
    and the mask."""
    n = grid.n
    mixed = np.fft.ifft(np.concatenate([sh, grid.ikx * sh]), axis=-2, norm="forward")
    real = np.fft.irfft(np.concatenate([mixed, grid.iky * mixed[:6]]), n=n, axis=-1,
                        norm="forward")
    nh = rfft2(dynamics._products(real)) * grid.mask
    ah, bh, ch, rh = sh[2], sh[3], sh[4], sh[5]
    nh[0] += params.bigK * (grid.ikx * (0.5 * ch + ah) + grid.iky * bh)
    nh[1] += params.bigK * (grid.ikx * bh + grid.iky * (0.5 * ch - ah))
    nh[4] += 4.0 * params.k * rh
    return (nh, real[:6]) if planes else nh


class TestTransformScratch:
    """`_terms` allocates one complex derivative stack of the kept columns
    and two row blocks per call and frees them on return, and its product
    pass is bit-identical, on the kept columns, to the full-width
    transforms, which are zero beyond them; what it returns is the
    caller's own, and a change of grid changes no result."""

    @staticmethod
    def _packed(n, seed):
        grid = make_grid(n, TWO_PI)
        state = band_limited_admissible_state(grid, seed,
                                              kmax=n // 4, amp=0.4, u_amp=0.3)
        return grid, pack_state(state)

    @staticmethod
    def _assert_matches_reference(grid, sh):
        full = full_width(grid, sh)
        nh, reals = _terms(grid, PARAMS, sh, planes=True)
        want_nh, want_reals = reference_terms(grid, PARAMS, full, planes=True)
        assert_kept_columns(grid, nh, want_nh)
        assert np.array_equal(reals, want_reals)
        assert np.array_equal(reals, irfft2(full, grid.n))
        assert_kept_columns(grid, _terms(grid, PARAMS, sh),
                            reference_terms(grid, PARAMS, full, planes=False))

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_bit_identical_to_full_width(self, n):
        grid, sh = self._packed(n, 4)
        assert np.any(sh[..., grid.kept_columns - 1] != 0)  # the last kept column is live
        self._assert_matches_reference(grid, sh)

    def test_ragged_row_blocks(self, monkeypatch):
        """A budget of 5 rows at n=16 gives blocks of 5, 5, 5 and 1 rows."""
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 5 * 18 * 16 * 8)
        grid, sh = self._packed(16, 5)
        self._assert_matches_reference(grid, sh)

    def test_outputs_own_their_memory(self):
        grid, sh = self._packed(16, 1)
        _, sh2 = self._packed(16, 2)
        nh, reals = _terms(grid, PARAMS, sh, planes=True)
        kept = nh.copy(), reals.copy()
        _terms(grid, PARAMS, sh2, planes=True)
        _terms(grid, PARAMS, sh2)
        assert np.array_equal(nh, kept[0]) and np.array_equal(reals, kept[1])

    def test_nothing_held_after_return(self):
        """Once `_terms` returns at n=256 and its outputs are dropped, the
        traced memory is back where it was before the call: the derivative
        stack and the row blocks (5.34 MiB) were freed on return.  The 4 KiB
        allowed covers the few hundred bytes of small objects that the
        interpreter and numpy cache for reuse."""
        grid, sh = self._packed(256, 6)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            nh, reals = _terms(grid, PARAMS, sh, planes=True)
            del nh, reals
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 4096, after - before

    def test_held_scratch_below_one_real_stack(self):
        """At n=256 one call's traced peak, less the arrays it returns, is
        below the 18-plane real stack a full-width pass needs (the
        full-width design held that plus an 18-plane complex stack): the
        kept-column stack, the row blocks and the products' temporaries
        together take less."""
        grid, sh = self._packed(256, 6)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            nh, reals = _terms(grid, PARAMS, sh, planes=True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        transient = peak - nh.nbytes - reals.nbytes
        assert transient < 18 * 256 * 256 * 8, transient

    def test_grid_changes_match_fresh_scratch(self):
        """Runs at n=16, 128 (two row blocks) and 16 again give the bits of
        the same runs repeated: a change of grid leaves nothing behind that
        moves a result."""
        texts = {n: f"n={n}\npreset=random_admissible\nseed=3\namplitude=1.0\n"
                    "t_end=0.02\nsnapshot_times=0.01\n" for n in (16, 128)}

        def solve(n):
            cfg = parse_config(texts[n])
            initial = build_initial(cfg, make_grid(n, cfg.length))
            return run_collected(initial, cfg.params, cfg.control, cfg.monitors)

        shared = [solve(n) for n in (16, 128, 16)]
        for n, got in zip((16, 128, 16), shared):
            want = solve(n)
            assert [r.norms for r in got.records] == [r.norms for r in want.records]
            assert_same_state(got.snapshots[0][1], want.snapshots[0][1])
            assert_same_state(got.final_state, want.final_state)

    def test_warm_evaluation_allocates_no_stack(self):
        """A warm `_terms(planes=True)` at n=64 allocates its outputs (2/3
        of a stack), the products' temporaries and its own derivative stack
        and row blocks (`pass_buffers`, 1.74 stacks), and peaks at 2.29
        stacks.  It allocates no 18-plane stack: one more would take it
        past the bound."""
        grid, sh = self._packed(64, 3)
        stack = 18 * 64 * 33 * 16
        _terms(grid, PARAMS, sh, planes=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _terms(grid, PARAMS, sh, planes=True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < stack + pass_buffers(64), peak / stack


class TestThreads:
    """Every evaluation allocates its own buffers, so runs on two threads
    at once give the bits of the same runs one after the other."""

    def test_overlapping_runs_match_serial_runs(self):
        def solve(seed):
            cfg = parse_config(f"n=64\npreset=random_admissible\nseed={seed}\n"
                               "amplitude=1.0\nt_end=0.05\noutput_every=1\n"
                               "snapshot_times=0.01\n")
            initial = build_initial(cfg, make_grid(cfg.n, cfg.length))
            return run_collected(initial, cfg.params, cfg.control, cfg.monitors)

        serial = [solve(seed) for seed in (0, 1)]
        for got, want in zip(in_threads(solve, (0, 1)), serial):
            assert len(want.records) >= 4
            assert_same_run(got, want.records, want.snapshots, want.final_state)


class TestRun:
    def test_equilibrium_constant_diagnostics(self):
        cfg = parse_config("n=16\npreset=equilibrium\ndt_max=1e-3\nt_end=1.0\n"
                           "output_every=100\n")
        grid = make_grid(16, cfg.length)
        traj = run_collected(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        energies = [r.energy for r in traj.records]
        assert max(energies) - min(energies) <= 1e-12 * abs(energies[0])
        gammas = [r.min_gamma for r in traj.records]
        assert max(gammas) - min(gammas) <= 1e-12
        assert np.all(np.diff([r.time for r in traj.records]) > 0)
        assert traj.records[0].dissipation == pytest.approx(
            traj.records[0].source, rel=1e-14
        )

    def test_taylor_green_energy_decay(self):
        cfg = parse_config("n=32\npreset=taylor_green\namplitude=1.0\n"
                           "t_end=0.5\noutput_every=10\n")
        grid = make_grid(32, cfg.length)
        traj = run_collected(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        E0 = traj.records[0].norms["u_L2"] ** 2
        for rec in traj.records:
            expected = E0 * np.exp(-4.0 * cfg.params.nu * rec.time)
            assert rec.norms["u_L2"] ** 2 == pytest.approx(expected, rel=1e-9)
        assert min(r.min_gamma for r in traj.records) >= -1e-12

    def test_positivity_over_random_run(self):
        cfg = parse_config("n=32\npreset=random_admissible\nseed=77\n"
                           "t_end=0.5\noutput_every=10\n")
        grid = make_grid(32, cfg.length)
        traj = run_collected(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        ceiling = max(r.c_max for r in traj.records)
        assert min(r.min_gamma / 2 for r in traj.records) >= -1e-8 * max(1.0, ceiling)

    def test_rho_integrals_conserved(self):
        cfg = parse_config("n=32\npreset=random_admissible\nseed=5\n"
                           "t_end=1.0\noutput_every=20\n")
        grid = make_grid(32, cfg.length)
        traj = run_collected(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
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

    def test_nonfinite_initial_state_raises_nan_at_initial_time(self, monkeypatch):
        grid = make_grid(16, TWO_PI)
        state = uniform_state(grid, 2.0, 1.0)
        state.planes[0, 2, 3] = np.nan

        def no_evaluation(*args, **kwargs):
            raise AssertionError("evaluated a non-finite state")

        monkeypatch.setattr(integrate, "_terms", no_evaluation)
        with pytest.raises(MonitorViolation) as exc:
            run(state, PARAMS, StepControl(t_end=0.1))
        assert exc.value.kind == "nan"
        assert exc.value.time == 0.0

    @staticmethod
    def _run_with_injected_source(monkeypatch, eps):
        """`random_admissible`, n=32, amplitude 1, to t=0.2, with eps u
        added to the velocity's explicit terms at every evaluation: an
        energy source of 2 eps int |u|^2 per unit time that the budget the
        `energy` monitor checks does not hold.  Returns the violation that
        stopped the run, or None."""
        terms, explicit = integrate._terms, integrate.explicit_terms

        def injected_terms(grid, params, sh, *, planes=False):
            out = terms(grid, params, sh, planes=planes)
            (out[0] if planes else out)[0:2] += eps * sh[0:2]
            return out

        def injected_explicit(grid, params, sh):
            nh = explicit(grid, params, sh)
            nh[0:2] += eps * sh[0:2]
            return nh

        monkeypatch.setattr(integrate, "_terms", injected_terms)
        monkeypatch.setattr(integrate, "explicit_terms", injected_explicit)
        cfg = parse_config("n=32\npreset=random_admissible\namplitude=1\nt_end=0.2\n")
        try:
            run(build_initial(cfg, make_grid(32, cfg.length)), cfg.params, cfg.control,
                cfg.monitors)
        except MonitorViolation as exc:
            return exc
        return None

    def test_energy_monitor_stops_an_injected_source(self, monkeypatch):
        """eps = 0.3 stops the run at its first step, t = 0.01.  (eps = 0.1
        passes: the monitor's scale is set by the polymer terms, about 25x
        the kinetic energy.)"""
        exc = self._run_with_injected_source(monkeypatch, 0.3)
        assert isinstance(exc, MonitorViolation) and exc.kind == "energy"
        assert exc.time == pytest.approx(0.01, abs=1e-12)

    def test_energy_monitor_passes_without_a_source(self, monkeypatch):
        assert self._run_with_injected_source(monkeypatch, 0.0) is None

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

    def test_snapshots(self):
        cfg = parse_config("n=16\npreset=equilibrium\ndt_max=0.01\nt_end=0.1\n"
                           "snapshot_times=0.05\n")
        grid = make_grid(16, cfg.length)
        traj = run_collected(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        assert len(traj.snapshots) == 1
        t_snap, snap = traj.snapshots[0]
        assert t_snap == 0.05
        assert snap.time == pytest.approx(0.05, abs=1e-9)

    def test_snapshot_and_final_states_are_views_of_one_evaluation(self):
        cfg = parse_config("n=16\npreset=random_admissible\ndt_min=0.01\ndt_max=0.01\n"
                           "t_end=0.05\noutput_every=2\nsnapshot_times=0.02,0.05\n")
        grid = make_grid(16, cfg.length)
        traj = run_collected(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        (_, mid), (_, last) = traj.snapshots
        final = traj.final_state
        assert last is final
        assert not np.shares_memory(mid.planes, final.planes)

    def test_record_cadence(self):
        cfg = parse_config("n=16\npreset=equilibrium\ndt_min=0.01\ndt_max=0.01\n"
                           "t_end=0.1\noutput_every=3\n")
        grid = make_grid(16, cfg.length)
        traj = run_collected(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        # 10 steps, every third recorded, plus the initial record.
        assert len(traj.records) == 10 // 3 + 1

    def test_final_time_hit_exactly(self):
        cfg = parse_config("n=16\npreset=equilibrium\ndt_max=0.0299\nt_end=0.1\n")
        grid = make_grid(16, cfg.length)
        traj = run_collected(build_initial(cfg, grid), cfg.params, cfg.control, cfg.monitors)
        assert traj.final_state.time == pytest.approx(0.1, abs=1e-12)


class TestDiscreteEnergyInequality:
    def test_per_step_budget_with_richardson_slack(self):
        cfg_text = ("n=32\npreset=random_admissible\nseed=9\namplitude=0.3\n"
                    "t_end=0.25\noutput_every=1\ndt_min={dt}\ndt_max={dt}\n")

        def max_excess(dt):
            cfg = parse_config(cfg_text.format(dt=dt))
            grid = make_grid(32, cfg.length)
            traj = run_collected(build_initial(cfg, grid), cfg.params, cfg.control,
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
