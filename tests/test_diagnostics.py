import dataclasses
import math
import sys

import numpy as np
import pytest

from oldb2d import (
    PhysParams,
    apriori_ledger,
    bound_check,
    determinant_residual,
    energy_ledger,
    make_grid,
    norms,
    positivity_report,
    run,
)
from oldb2d.checks import band_limited_admissible_state
from oldb2d.config import parse_config, build_initial
from oldb2d.diagnostics import LedgerEntry, _running_sup, series
from oldb2d.units import UnitsError, uexp, uv
from oldb2d.units import CM, SEC

from conftest import state_of
from oracles import eig_min_scan, relaxation_exact, taylor_green_velocity

TWO_PI = 2.0 * np.pi
PARAMS = PhysParams(nu=0.01, kappa=0.01, k=1.0, bigK=1.0)
AREA = TWO_PI ** 2


def uniform_state(grid, c0, rho0, time=0.0):
    return state_of(grid, c=c0, rho=rho0, time=time)


class TestEnergyLedger:
    def test_equilibrium_balance(self, grid32):
        rho0 = 1.0
        state = uniform_state(grid32, 2.0 * rho0, rho0)
        led = energy_ledger(state, PARAMS)
        assert led.energy == pytest.approx(PARAMS.bigK * 2.0 * rho0 * AREA, rel=1e-13)
        assert led.dissipation == pytest.approx(
            2.0 * PARAMS.k * PARAMS.bigK * 2.0 * rho0 * AREA, rel=1e-13
        )
        assert led.source == pytest.approx(
            4.0 * PARAMS.k * PARAMS.bigK * rho0 * AREA, rel=1e-13
        )
        assert led.dissipation == pytest.approx(led.source, rel=1e-13)

    def test_zero_state(self, grid32):
        state = uniform_state(grid32, 0.0, 0.0)
        led = energy_ledger(state, PARAMS)
        assert led.energy == 0.0
        assert led.dissipation == 0.0
        assert led.source == 0.0

    def test_taylor_green_values(self, grid64):
        x, y = grid64.nodes()
        state = state_of(grid64, u=taylor_green_velocity(x, y))
        led = energy_ledger(state, PARAMS)
        # integral |u|^2 = 2 pi^2; integral |grad u|^2 = 2 * integral |u|^2
        assert led.energy == pytest.approx(2.0 * np.pi ** 2, rel=1e-12)
        assert led.dissipation == pytest.approx(
            2.0 * PARAMS.nu * 4.0 * np.pi ** 2, rel=1e-12
        )
        assert led.source == 0.0


class TestPositivityReport:
    def test_identity_stress(self, grid32):
        state = uniform_state(grid32, 2.0, 1.0)
        rep = positivity_report(state, tol=1e-8)
        assert rep.min_c == 2.0
        assert rep.min_gamma == 2.0
        assert rep.passed

    def test_constructed_violation(self, grid32):
        state = state_of(grid32, a=3.0, b=4.0, c=9.9, rho=1.0)
        rep = positivity_report(state, tol=1e-8)
        assert rep.min_gamma == pytest.approx(-0.1, abs=1e-12)
        assert not rep.passed

    def test_matches_brute_force_scan(self, grid32):
        state = band_limited_admissible_state(grid32, seed=8, kmax=4)
        rep = positivity_report(state, tol=1e-8)
        a, b, c = state.planes[2:5]
        assert rep.min_c == float(np.min(c))
        assert rep.min_rho == float(np.min(state.planes[5]))
        assert rep.min_gamma / 2 == pytest.approx(float(np.min(eig_min_scan(a, b, c))),
                                                  abs=1e-12)


class TestAprioriLedger:
    def test_identity_initial_data_formula(self, grid32):
        # u0 = 0, sigma0 = I, rho0 = 1: R0 = K*2*(2pi)^2 + 4kKT(2pi)^2.
        state = uniform_state(grid32, 2.0, 1.0)
        T = 1.5
        led = apriori_ledger(state, PARAMS, T)
        expected = (PARAMS.bigK * 2.0 * AREA
                    + 4.0 * PARAMS.k * PARAMS.bigK * T * AREA)
        assert led.R0.value == pytest.approx(expected, rel=1e-12)

    def test_zero_data(self, grid32):
        state = uniform_state(grid32, 0.0, 0.0)
        led = apriori_ledger(state, PARAMS, 2.0)
        for name, entry in led.entries().items():
            assert entry.value == 0.0, name
            assert not entry.overflowed

    def test_monotone_in_horizon(self, grid32):
        state = band_limited_admissible_state(grid32, seed=9, kmax=4)
        rng = np.random.default_rng(10)
        for _ in range(8):
            params = PhysParams(
                nu=float(rng.uniform(0.005, 0.2)),
                kappa=float(rng.uniform(0.005, 0.2)),
                k=float(rng.uniform(0.1, 3.0)),
                bigK=float(rng.uniform(0.1, 3.0)),
            )
            T = float(rng.uniform(0.1, 2.0))
            led1 = apriori_ledger(state, params, T)
            led2 = apriori_ledger(state, params, 2.0 * T)
            for name, e1 in led1.entries().items():
                e2 = getattr(led2, name)
                assert e2.value >= e1.value * (1.0 - 1e-12), name

    def test_units(self, grid32):
        state = band_limited_admissible_state(grid32, seed=11, kmax=4)
        led = apriori_ledger(state, PARAMS, 1.0)
        assert led.R0.units == "cm^4 sec^-2"
        assert led.R1.units == "cm^2"
        assert led.R2.units == "cm^2 sec^-2"
        assert led.R3.units == "dimensionless"
        assert led.R4.units == "sec^-2"
        assert led.R5.units == "mixed"
        assert led.B.units == "dimensionless"

    def test_overflow_flagged_not_raised(self, grid32):
        state = band_limited_admissible_state(grid32, seed=12, kmax=4)
        params = PhysParams(nu=1e-9, kappa=1e-9, k=1.0, bigK=1.0)
        led = apriori_ledger(state, params, 5.0)
        assert np.isinf(led.R1.value) and led.R1.overflowed
        assert np.isinf(led.R3.value) and led.R3.overflowed
        assert not led.R0.overflowed

    def test_zero_kappa_overflows_past_r0(self, grid32):
        # Zero stress and density make the R1 bracket 0, so inf * 0 would
        # give nan; every bound past R0 must still read +inf.
        x, y = grid32.nodes()
        state = state_of(grid32, u=taylor_green_velocity(x, y))
        params0 = PhysParams(nu=0.01, kappa=0.0, k=1.0, bigK=1.0)
        led = apriori_ledger(state, params0, 1.0)
        assert led.R0.value == pytest.approx(
            apriori_ledger(state, PARAMS, 1.0).R0.value, rel=1e-15)
        assert not led.R0.overflowed
        for name in ("R1", "R2", "R3", "R4", "R5", "B"):
            entry = getattr(led, name)
            assert entry.value == np.inf and entry.overflowed, name
            assert entry.units == getattr(apriori_ledger(state, PARAMS, 1.0), name).units

    def test_zero_stress_bounds_are_exact_zeros(self, grid32):
        # exp(R0 / (nu kappa)) overflows, but the brackets it multiplies
        # are exact zeros, so R1, R3, R5 and B are 0 rather than inf * 0.
        x, y = grid32.nodes()
        state = state_of(grid32, u=taylor_green_velocity(x, y))
        led = apriori_ledger(state, PARAMS, 1.0)
        for name in ("R1", "R3", "R5", "B"):
            entry = getattr(led, name)
            assert entry.value == 0.0 and not entry.overflowed, name
        assert led.R2.value == norms(state)["omega_L2"] ** 2
        assert not any(math.isnan(e.value) for e in led.entries().values())

    def test_constant_policy_scales_r1(self, grid32):
        state = band_limited_admissible_state(grid32, seed=13, kmax=4)
        led1 = apriori_ledger(state, PARAMS, 1.0, constant_c=1.0)
        led2 = apriori_ledger(state, PARAMS, 1.0, constant_c=2.0)
        assert led2.R1.value == pytest.approx(2.0 * led1.R1.value, rel=1e-12)
        assert led2.constant_c == 2.0


class TestUnitsAlgebra:
    def test_mismatched_addition_rejected(self):
        with pytest.raises(UnitsError):
            _ = uv(1.0, CM) + uv(1.0, SEC)

    def test_exponent_must_be_dimensionless(self):
        with pytest.raises(UnitsError):
            uexp(uv(1.0, CM))

    def test_exact_zero_factor_beats_overflow(self):
        big = uexp(uv(1e3))
        assert big.value == math.inf
        for product in (uv(0.0, CM) * big, big * uv(0.0, CM)):
            assert product.value == 0.0
            assert str(product.unit) == "cm"
        assert (big * uv(2.0)).value == math.inf

    def test_fractional_powers(self):
        v = uv(4.0, CM ** 2) ** 0.5
        assert v.value == 2.0
        assert str(v.unit) == "cm"


class TestBoundCheck:
    def _equilibrium_traj(self):
        cfg = parse_config("n=16\npreset=equilibrium\ndt_max=1e-3\nt_end=0.2\n"
                           "output_every=20\n")
        grid = make_grid(16, cfg.length)
        initial = build_initial(cfg, grid)
        traj = run(initial, cfg.params, cfg.control, cfg.monitors)
        return initial, traj, cfg

    def test_equilibrium_passes_strictly(self):
        initial, traj, cfg = self._equilibrium_traj()
        led = apriori_ledger(initial, cfg.params, traj.records[-1].time)
        row = bound_check(series(traj.records), led, cfg.params)[0]
        assert row.hard and row.passed
        # strict: the source term in R0 is pure slack at equilibrium
        assert row.observed < row.bound

    def test_taylor_green_energy_equality(self):
        cfg = parse_config("n=32\npreset=taylor_green\namplitude=1.0\n"
                           "dt_max=5e-3\nt_end=0.5\noutput_every=1\n")
        grid = make_grid(32, cfg.length)
        initial = build_initial(cfg, grid)
        traj = run(initial, cfg.params, cfg.control, cfg.monitors)
        led = apriori_ledger(initial, cfg.params, traj.records[-1].time)
        row = bound_check(series(traj.records), led, cfg.params)[0]
        # Energy equality: the observed budget equals E(0) = R0 up to
        # quadrature error.
        assert row.bound == pytest.approx(traj.records[0].energy, rel=1e-12)
        assert row.observed == pytest.approx(row.bound, rel=1e-5)
        assert row.passed

    def test_normal_budget_gate_is_the_unscaled_sum(self):
        """The gate sums at a power-of-two scale, which is exact for normal
        values: the observed budget is the unscaled sum bit for bit, and
        the result is observed <= R0 (1 + rel_tol) at any R0 near it."""
        cfg = parse_config("n=16\npreset=random_admissible\nseed=3\nt_end=0.05\n")
        initial = build_initial(cfg, make_grid(16, cfg.length))
        traj = run(initial, cfg.params, cfg.control, cfg.monitors)
        cols = series(traj.records)
        p = cfg.params
        observed = _running_sup(cols["time"], cols["u_L2"] ** 2 + p.bigK * cols["sigma_L1"],
                                cols["grad_u_L2"] ** 2, 2.0 * p.nu)
        led = apriori_ledger(initial, p, cfg.control.t_end)
        assert bound_check(cols, led, p)[0].observed == observed
        edge = observed / (1.0 + 1e-6)
        for bound in (edge * (1.0 - 1e-12), edge, edge * (1.0 + 1e-12), 2.0 * edge):
            ledger = dataclasses.replace(led, R0=LedgerEntry(bound, led.R0.units, False))
            row = bound_check(cols, ledger, p)[0]
            assert row.observed == observed
            assert row.passed == (observed <= bound * (1.0 + 1e-6)), bound

    def test_excess_beyond_rel_tol_fails(self):
        """The exact decaying Taylor-Green flow at nu=0.1 with a record every
        step passes the gate (its trapezoid excess is +4.4e-7 of R0); the
        same series with u_L2 scaled by 1 + 2e-6, a 4e-6 energy excess
        beyond `rel_tol` = 1e-6, fails."""
        cfg = parse_config("n=32\npreset=taylor_green\nnu=0.1\nt_end=1\n")
        initial = build_initial(cfg, make_grid(32, cfg.length))
        traj = run(initial, cfg.params, cfg.control, cfg.monitors)
        led = apriori_ledger(initial, cfg.params, cfg.control.t_end)
        cols = series(traj.records)
        assert bound_check(cols, led, cfg.params)[0].passed
        cols["u_L2"] = cols["u_L2"] * (1.0 + 2e-6)
        assert not bound_check(cols, led, cfg.params)[0].passed

    @pytest.mark.parametrize("amplitude,length", [
        (1e-160, 2.0 * np.pi), (3e-158, 3.0), (1e-158, 30.0), (1e-170, 2.0 * np.pi)])
    def test_subnormal_budget_passes(self, amplitude, length):
        """A Taylor-Green budget holds with equality, so an R0 below 2^-1022
        (subnormal, exactly 0 at amplitude 1e-170) must pass: its excess
        over the observed budget was rounding, not a budget excess."""
        cfg = parse_config(f"n=16\nL={length!r}\npreset=taylor_green\n"
                           f"amplitude={amplitude}\nt_end=0.001\n")
        initial = build_initial(cfg, make_grid(16, cfg.length))
        traj = run(initial, cfg.params, cfg.control, cfg.monitors)
        led = apriori_ledger(initial, cfg.params, cfg.control.t_end)
        assert led.R0.value < sys.float_info.min
        cols = series(traj.records)
        row = bound_check(cols, led, cfg.params)[0]
        assert row.passed, (row.observed, row.bound)
        # A 2% excess is far beyond rounding, and still fails.
        if led.R0.value > 0.0:
            cols["u_L2"] = cols["u_L2"] * 1.01
            assert not bound_check(cols, led, cfg.params)[0].passed

    def test_norms_of_a_tiny_state_keep_full_precision(self):
        """Squares of values below 2^-511 are subnormal; the norms of such a
        state are those of the unscaled state times the scale."""
        cfg = parse_config("n=16\npreset=random_admissible\nseed=4\n")
        state = build_initial(cfg, make_grid(16, cfg.length))
        tiny = dataclasses.replace(state, planes=state.planes * 1e-160)
        want, got = norms(state), norms(tiny)
        for key, value in want.items():
            assert got[key] == pytest.approx(1e-160 * value, rel=1e-14), key

    def test_report_schema(self):
        initial, traj, cfg = self._equilibrium_traj()
        led = apriori_ledger(initial, cfg.params, traj.records[-1].time)
        rows = bound_check(series(traj.records), led, cfg.params)
        assert [r.name for r in rows] == ["R0", "R1", "R2", "R3", "R4", "R5"]
        assert sum(r.hard for r in rows) == 1
        for row in rows[1:]:
            assert row.passed is None
            assert row.ratio >= 0.0


class TestRecordsMatchFieldLevelDiagnostics:
    """Records are built from the stepper's arrays; every value must equal
    what the public field-level functions give on the stored state."""

    def test_records_match_stored_states(self):
        cfg = parse_config("n=32\npreset=random_admissible\namplitude=1.0\n"
                           "seed=21\nt_end=0.05\n"
                           "snapshot_times=0.01,0.02,0.03,0.04,0.05\n")
        initial = build_initial(cfg, make_grid(32, cfg.length))
        traj = run(initial, cfg.params, cfg.control, cfg.monitors)
        # Every step is recorded, so each snapshot is a recorded state.
        by_time = {rec.time: rec for rec in traj.records}
        pairs = [(traj.records[0], initial)]
        pairs += [(by_time[t], snap) for t, snap in traj.snapshots]
        assert len(pairs) == 6

        def close(got, want):
            return abs(got - want) <= 1e-12 * max(1.0, abs(want))

        for rec, state in pairs:
            assert rec.time == state.time
            led = energy_ledger(state, cfg.params)
            pos = positivity_report(state, tol=0.0)
            rep = norms(state)
            for key in ("energy", "dissipation", "source"):
                assert close(getattr(rec, key), getattr(led, key)), key
            for key in ("min_gamma", "min_rho"):
                assert close(getattr(rec, key), getattr(pos, key)), key
            assert close(rec.c_max, pos.max_c)
            assert rec.norms.keys() == rep.keys()
            for key, want in rep.items():
                assert close(rec.norms[key], want), key


class TestDeterminantResidual:
    PARAMS0 = PhysParams(nu=0.01, kappa=0.0, k=1.0, bigK=1.0)

    def test_equilibrium_window(self, grid32):
        states = [uniform_state(grid32, 2.0, 1.0, time=j * 0.01) for j in range(3)]
        assert determinant_residual(states, self.PARAMS0) <= 1e-12

    def test_exact_solution_window_order(self, grid32):
        # States sampled from the exact uniform relaxation: the residual is
        # purely the centered-difference truncation, order two in dt.
        c0, rho0 = 3.0, 1.0

        def window(dt, t_mid=0.3):
            states = []
            for j in (-1, 0, 1):
                t = t_mid + j * dt
                states.append(uniform_state(
                    grid32, relaxation_exact(t, c0, rho0, self.PARAMS0.k),
                    rho0, time=t,
                ))
            return states

        errs = [determinant_residual(window(dt), self.PARAMS0)
                for dt in (0.08, 0.04, 0.02)]
        orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
        assert min(orders) >= 1.9, (errs, orders)

    def test_refuses_kappa_positive(self, grid32):
        states = [uniform_state(grid32, 2.0, 1.0, time=j * 0.01) for j in range(3)]
        with pytest.raises(ValueError, match="kappa"):
            determinant_residual(states, PARAMS)

    def test_rejects_nonuniform_window(self, grid32):
        states = [
            uniform_state(grid32, 2.0, 1.0, time=t) for t in (0.0, 0.01, 0.05)
        ]
        with pytest.raises(ValueError, match="uniform"):
            determinant_residual(states, self.PARAMS0)
