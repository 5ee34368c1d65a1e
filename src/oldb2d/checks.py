"""The aggregated invariant/property suite behind `oldb2d check`.

Each check returns (name, passed, detail).  The set mirrors the library's
documented invariants: spectral exactness, positivity equivalences, the
nonlinearity cancellations, discrete conservation, ledger sanity, and the
fixed-point diagnostics.  `check` exits zero iff every entry passes.

Every entry runs the fixed problem its tolerance was set for: the
documented defaults (L = 2 pi, nu = kappa = 0.01, k = K = 1, the default
monitors and C = 1) and, where it needs data, `random_admissible` at its
default seed, amplitudes and `init_kmax`.  A user's own problem is checked
by `run`'s monitors and its R0 gate.
"""

from __future__ import annotations

import functools
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import config as cfgmod
from . import diagnostics, dynamics, picard, snapshots
from .fields import PhysParams, SimState, norms
from .integrate import StepControl, run, step
from .spectral import dealias, decay, irfft2, l2_scale, make_grid, project, rfft2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


_LENGTH = 2.0 * np.pi
_PARAMS = PhysParams(nu=0.01, kappa=0.01, k=1.0, bigK=1.0)
_PARAMS_KAPPA0 = PhysParams(nu=0.01, kappa=0.0, k=1.0, bigK=1.0)


def _initial(n: int = 32, text: str = "preset=random_admissible") -> SimState:
    """The initial state of the config `text`, every other key at its
    default, on the n-point grid of side `_LENGTH`."""
    return cfgmod.build_initial(cfgmod.parse_config(f"n={n}\n{text}"), make_grid(n, _LENGTH))


def band_limited_admissible_state(grid, seed: int, kmax: int,
                                  c_base: float = 3.0, amp: float = 0.2,
                                  u_amp: float = 0.2) -> SimState:
    """Admissible state whose a, b, c, rho, u are all supported on modes with
    max(|k1|,|k2|) <= kmax.  With 3*kmax below the dealias cut, every
    quadratic product in the right-hand sides is alias-free and untouched by
    the mask, so algebraic cancellation identities hold to rounding."""
    rng = np.random.default_rng(seed)
    a = amp * cfgmod.band_limited_random(grid, rng, kmax)
    b = amp * cfgmod.band_limited_random(grid, rng, kmax)
    c = c_base + amp * cfgmod.band_limited_random(grid, rng, kmax)
    rho = 1.0 + 0.4 * cfgmod.band_limited_random(grid, rng, kmax)
    psih = rfft2(cfgmod.band_limited_random(grid, rng, kmax))
    u = irfft2(np.stack([-grid.iky * psih, grid.ikx * psih]), grid.n)
    peak = np.max(np.abs(u))
    if peak > 0:
        u *= u_amp / peak
    state = SimState(0.0, grid, np.stack([*u, a, b, c, rho]))
    assert diagnostics.positivity_report(state, 1e-10).passed
    return state


def _rel(err, scale) -> float:
    return err / max(scale, 1e-300)


def check_transform_roundtrip() -> CheckResult:
    g = make_grid(64, _LENGTH)
    rng = np.random.default_rng(7)
    f = rng.standard_normal((g.n, g.n))
    back = irfft2(rfft2(f), g.n)
    err = _rel(np.max(np.abs(back - f)), np.max(np.abs(f)))
    return _result("spectral.transform_roundtrip", err <= 1e-13, f"rel err {err:.2e}")


def check_projector() -> CheckResult:
    g = make_grid(64, _LENGTH)
    rng = np.random.default_rng(8)
    vh = rfft2(rng.standard_normal((2, g.n, g.n)))
    scale = l2_scale(g, vh)
    project(g, vh)
    div_err = np.max(np.abs(g.ikx * vh[0] + g.iky * vh[1])) / scale
    again = vh.copy()
    project(g, again)
    idem = np.max(np.abs(again - vh)) / scale
    ok = div_err <= 1e-13 and idem <= 1e-13
    return _result("spectral.projector", ok, f"div {div_err:.2e}, idem {idem:.2e}")


def check_derivative_exactness() -> CheckResult:
    g = make_grid(64, _LENGTH)
    x, y = g.nodes()
    s = 2.0 * np.pi / g.length
    fh = rfft2(np.sin(3 * s * x) * np.cos(2 * s * y))
    exact = 3 * s * np.cos(3 * s * x) * np.cos(2 * s * y)
    err = _rel(np.max(np.abs(irfft2(g.ikx * fh, g.n) - exact)), np.max(np.abs(exact)))
    return _result("spectral.derivative_exactness", err <= 1e-13, f"rel err {err:.2e}")


def check_semigroup_law() -> CheckResult:
    g = make_grid(64, _LENGTH)
    rng = np.random.default_rng(9)
    f = rng.standard_normal((g.n, g.n))
    fh = rfft2(f)
    one = irfft2(decay(g, 0.01, 2.0, 0.7) * fh, g.n)
    two = irfft2(decay(g, 0.01, 2.0, 0.4) * (decay(g, 0.01, 2.0, 0.3) * fh), g.n)
    err = _rel(np.max(np.abs(one - two)), np.max(np.abs(f)))
    return _result("spectral.semigroup_law", err <= 1e-13, f"rel err {err:.2e}")


def check_parseval() -> CheckResult:
    g = make_grid(64, _LENGTH)
    rng = np.random.default_rng(10)
    f = rng.standard_normal((g.n, g.n))
    real_norm = np.sqrt(np.mean(f ** 2) * g.area)
    spec_norm = l2_scale(g, rfft2(f)) * np.sqrt(g.area)
    err = _rel(abs(real_norm - spec_norm), real_norm)
    return _result("spectral.parseval", err <= 1e-12, f"rel err {err:.2e}")


def check_gamma_equivalence() -> CheckResult:
    g = make_grid(32, _LENGTH)
    rng = np.random.default_rng(11)
    agree = True
    for _ in range(5):
        a = rng.standard_normal((g.n, g.n))
        b = rng.standard_normal((g.n, g.n))
        c = 2.0 * rng.standard_normal((g.n, g.n))
        gam = c - 2.0 * np.sqrt(a * a + b * b)
        detpos = (c >= 0) & (0.25 * c * c - a * a - b * b >= 0)
        agree &= bool(np.array_equal(gam >= 0, detpos))
    return _result("fields.gamma_detpos_equivalence", agree, "pointwise predicates agree")


def check_trace_bound() -> CheckResult:
    state = _initial()
    a, b, c = state.planes[2:5]
    lhs = 2.0 * np.mean(np.sqrt(a * a + b * b))
    rhs = np.mean(c)
    return _result("fields.trace_bound", lhs <= rhs * (1 + 1e-12),
                   f"2 int sqrt(a^2+b^2) = {lhs:.6g} <= int c = {rhs:.6g}")


def check_norm_parseval() -> CheckResult:
    state = _initial()
    rep = norms(state)
    u1, u2 = state.planes[0:2]
    direct = np.sqrt(np.mean(u1 * u1 + u2 * u2) * state.grid.area)
    err = _rel(abs(rep["u_L2"] - direct), max(direct, 1e-300))
    return _result("fields.norm_parseval", err <= 1e-12, f"rel err {err:.2e}")


def check_determinant_cancellation() -> CheckResult:
    state = band_limited_admissible_state(make_grid(32, _LENGTH), seed=21, kmax=3)
    a, b, c = state.planes[2:5]
    da, db, dc = dynamics.rates(state, _PARAMS_KAPPA0)[2:5]
    combo = 0.5 * c * dc - 2.0 * a * da - 2.0 * b * db
    law = dynamics.determinant_rhs(state, _PARAMS_KAPPA0)
    err = np.max(np.abs(combo - law))
    return _result("dynamics.determinant_cancellation", err <= 1e-10,
                   f"pointwise gap {err:.2e}")


def check_determinant_order() -> CheckResult:
    """The determinant law at kappa = 0 on stepped states: its residual on a
    window of three states around t = 0.1 falls at second order in dt.
    The residual also holds a part that does not shrink with dt, and at
    other data that floor hides the order at these steps (k = 0.1 reads
    2.6e-4, 2.3e-4, 2.3e-4)."""
    params = _PARAMS_KAPPA0
    state = band_limited_admissible_state(make_grid(32, _LENGTH), seed=101, kmax=3)
    t_mid = 0.1

    def residual(dt):
        ctl = StepControl(dt_min=dt, dt_max=dt, t_end=t_mid + 2 * dt,
                          snapshot_times=(t_mid - dt, t_mid, t_mid + dt))
        traj = run(state, params, ctl)
        return diagnostics.determinant_residual([s for _, s in traj.snapshots], params)

    errs = [residual(dt) for dt in (0.02, 0.01, 0.005)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    return _result("dynamics.determinant_order", min(orders) >= 1.9,
                   f"residuals {[f'{e:.2e}' for e in errs]}, "
                   f"orders {[f'{o:.2f}' for o in orders]}")


def check_energy_rate() -> CheckResult:
    params = _PARAMS
    state = _initial()
    g = state.grid
    r = dynamics.rates(state, params)
    u1, u2 = state.planes[0:2]
    lhs = np.mean(2.0 * (u1 * r[0] + u2 * r[1]) + params.bigK * r[4]) * g.area
    rep = norms(state)
    rhs = (
        -2.0 * params.nu * rep["grad_u_L2"] ** 2
        - 2.0 * params.k * params.bigK * rep["sigma_L1"]
        + 4.0 * params.k * params.bigK * np.mean(state.planes[5]) * g.area
    )
    scale = abs(rhs) + rep["u_L2"] ** 2 + 1.0
    ok = lhs <= rhs + 1e-8 * scale
    return _result("dynamics.energy_rate", ok,
                   f"rate {lhs:.6g} vs budget {rhs:.6g}")


def check_cubic_cancellation() -> CheckResult:
    params = _PARAMS
    state = _initial()
    g = state.grid
    u1, u2, a, b, c = state.planes[0:5]
    uh = rfft2(state.planes[0:2])
    d1u1, d2u2, d1u2, d2u1 = irfft2(
        np.stack([g.ikx * uh[0], g.iky * uh[1], g.ikx * uh[1], g.iky * uh[0]]), g.n)

    # Work of (-u.grad u + K div sigma) against 2u plus the trace-equation
    # stretching integral 4K (lam a + mu b), with the strain lam =
    # (d1u1 - d2u2)/2, mu = (d1u2 + d2u1)/2: the cubic terms cancel when
    # products share the dealiasing rule.  The force is taken projected,
    # from the velocity rate less its viscous part; against a
    # divergence-free u the projection does no work.
    force = dynamics.rates(state, params)[0:2]
    visc = params.nu * irfft2(-g.k_sq * uh, g.n)
    work = np.mean(2.0 * (u1 * (force[0] - visc[0]) + u2 * (force[1] - visc[1]))) * g.area
    stretch = 2.0 * params.bigK * np.mean((d1u1 - d2u2) * a + (d1u2 + d2u1) * b) * g.area
    total = work + stretch
    scale = (np.max(np.abs(u1)) + np.max(np.abs(c)) + 1.0) ** 3
    ok = abs(total) <= 1e-9 * scale + 1e-12
    return _result("dynamics.cubic_cancellation", ok, f"residual {total:.2e}")


def check_momentum_divfree() -> CheckResult:
    state = _initial()
    g = state.grid
    duh = rfft2(dynamics.rates(state, _PARAMS)[0:2])
    scale = l2_scale(g, duh)
    err = np.max(np.abs(g.ikx * duh[0] + g.iky * duh[1])) / max(scale, 1e-300)
    return _result("dynamics.momentum_divfree", err <= 1e-12, f"rel div {err:.2e}")


def check_transport_means() -> CheckResult:
    state = _initial()
    g = state.grid
    drho = dynamics.rates(state, _PARAMS)[5]
    mean_rho = abs(np.mean(drho))
    # u.grad(c) from dealiased factors; the mask keeps the mean mode.
    uh, ch = dealias(g, state.planes[0:2]), dealias(g, state.planes[4])
    u1, u2, c, d1c, d2c = irfft2(np.stack([*uh, ch, g.at(g.ikx, ch) * ch,
                                           g.at(g.iky, ch) * ch]), g.n)
    mean_c = abs(np.mean(u1 * d1c + u2 * d2c))
    scale = max(np.max(np.abs(u1)), np.max(np.abs(u2))) * np.max(np.abs(c)) + 1e-300
    ok = mean_rho <= 1e-12 * scale and mean_c <= 1e-12 * scale
    return _result("dynamics.transport_means", ok,
                   f"mean drho {mean_rho:.2e}, mean u.grad(c) {mean_c:.2e}")


def check_equilibrium_fixed_point() -> CheckResult:
    state = _initial(16, "preset=equilibrium")
    # The explicit source holds the fixed point to O((2k dt)^4 * k dt) per
    # step, so a small step keeps the drift at rounding level.
    out = step(state, 1e-3, _PARAMS)
    gap = np.max(np.abs(out.planes - state.planes))
    return _result("integrate.equilibrium_fixed_point", gap <= 1e-13,
                   f"max drift {gap:.2e}")


def check_temporal_order() -> CheckResult:
    rho0, c0, t_end = 1.0, 3.0, 1.0  # rho0: the preset's default
    exact = 2.0 * rho0 + (c0 - 2.0 * rho0) * np.exp(-2.0 * _PARAMS.k * t_end)

    def solve(dt):
        state = _initial(8, "preset=equilibrium")
        state.planes[4] = c0
        steps = int(round(t_end / dt))
        for _ in range(steps):
            state = step(state, dt, _PARAMS)
        return abs(np.max(state.planes[4]) - exact)

    errs = [solve(dt) for dt in (0.2, 0.1, 0.05)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = min(orders) >= 1.9
    return _result("integrate.temporal_order", ok,
                   f"errors {[f'{e:.2e}' for e in errs]}, orders {[f'{o:.2f}' for o in orders]}")


@functools.cache
def _short_random_run():
    """The initial state and the trajectory of the 50-step run that three
    entries read: run once."""
    state = _initial()
    return state, run(state, _PARAMS, StepControl(dt_max=0.01, t_end=0.5, output_every=5))


def check_rho_conservation() -> CheckResult:
    _, traj = _short_random_run()
    first, last = traj.records[0], traj.records[-1]
    span = last.time - first.time
    drift1 = abs(last.norms["rho_L1"] - first.norms["rho_L1"]) / first.norms["rho_L1"]
    drift2 = abs(last.norms["rho_L2"] - first.norms["rho_L2"]) / first.norms["rho_L2"]
    ok = max(drift1, drift2) <= 1e-8 * max(span, 1.0)
    return _result("integrate.rho_conservation", ok,
                   f"relative drifts {drift1:.2e}, {drift2:.2e} over {span:.2g}s")


def check_run_positivity() -> CheckResult:
    _, traj = _short_random_run()
    worst = min(r.min_gamma for r in traj.records)
    ceiling = max(r.c_max for r in traj.records)
    ok = worst >= -1e-8 * max(1.0, ceiling)
    return _result("integrate.run_positivity", ok, f"min gamma {worst:.3e}")


def check_equilibrium_balance() -> CheckResult:
    state = _initial(16, "preset=equilibrium")
    led = diagnostics.energy_ledger(state, _PARAMS)
    gap = _rel(abs(led.dissipation - led.source), led.source)
    ctl = StepControl(dt_max=1e-3, t_end=0.05, output_every=10)
    traj = run(state, _PARAMS, ctl)
    energies = [r.energy for r in traj.records]
    drift = _rel(max(energies) - min(energies), abs(energies[0]))
    ok = gap <= 1e-12 and drift <= 1e-12
    return _result("diagnostics.equilibrium_balance", ok,
                   f"balance gap {gap:.2e}, energy drift {drift:.2e}")


def check_energy_budget_gate() -> CheckResult:
    state, traj = _short_random_run()
    ledger = diagnostics.apriori_ledger(state, _PARAMS, traj.records[-1].time)
    row = diagnostics.bound_check(diagnostics.series(traj.records), ledger, _PARAMS)[0]
    return _result("diagnostics.energy_budget_gate", row.passed,
                   f"observed/bound = {row.ratio:.6f}")


def check_positivity_scan() -> CheckResult:
    state = _initial()
    rep = diagnostics.positivity_report(state, tol=1e-8)
    a, b, c = state.planes[2:5]
    eigs = np.linalg.eigvalsh(
        np.moveaxis(np.array([[0.5 * c + a, b], [b, 0.5 * c - a]]), (0, 1), (-2, -1))
    )
    brute_eig = float(np.min(eigs[..., 0]))
    brute_gamma = float(np.min(c - 2.0 * np.sqrt(a * a + b * b)))
    ok = (
        rep.min_c == float(np.min(c))
        and rep.min_rho == float(np.min(state.planes[5]))
        and abs(0.5 * rep.min_gamma - brute_eig) <= 1e-12
        and abs(rep.min_gamma - brute_gamma) <= 1e-12
    )
    return _result("diagnostics.positivity_scan", ok,
                   f"min eig {0.5 * rep.min_gamma:.6g} vs brute {brute_eig:.6g}")


def check_ledger_sanity() -> CheckResult:
    state = _initial(16)
    rng = np.random.default_rng(13)
    monotone = True
    for _ in range(5):
        params = PhysParams(
            nu=float(rng.uniform(0.005, 0.1)),
            kappa=float(rng.uniform(0.005, 0.1)),
            k=float(rng.uniform(0.2, 2.0)),
            bigK=float(rng.uniform(0.2, 2.0)),
        )
        t_short = float(rng.uniform(0.2, 1.0))
        led1 = diagnostics.apriori_ledger(state, params, t_short)
        led2 = diagnostics.apriori_ledger(state, params, 2.0 * t_short)
        for name, e1 in led1.entries().items():
            e2 = getattr(led2, name)
            if e2.value < e1.value * (1 - 1e-12):
                monotone = False
    led = diagnostics.apriori_ledger(state, _PARAMS, 1.0)
    units_ok = led.R0.units == "cm^4 sec^-2" and led.B.units == "dimensionless"
    ok = monotone and units_ok
    return _result("diagnostics.ledger_sanity", ok,
                   f"R0 [{led.R0.units}], B [{led.B.units}], monotone={monotone}")


def check_ledger_overflow() -> CheckResult:
    state = _initial(16)
    params = PhysParams(nu=1e-8, kappa=1e-8, k=1.0, bigK=1.0)
    led = diagnostics.apriori_ledger(state, params, 10.0)
    ok = led.R1.overflowed and np.isinf(led.R1.value)
    return _result("diagnostics.ledger_overflow", ok,
                   f"R1 = {led.R1.value}, flagged {led.R1.overflowed}")


def _picard_setup(nodes=33):
    state = _initial(16, "preset=random_admissible\nseed=5\namplitude=0.05\n"
                         "stress_amplitude=0.05")
    pcfg = picard.PicardConfig(t0=0.1, n_time_nodes=nodes, max_iter=40, tol=1e-11)
    return state.grid, state, pcfg


def check_picard_bilinearity() -> CheckResult:
    """The map's Q1 integrand is a quadratic form Q: Q(2.5 u) = 6.25 Q(u)
    and Q(u + w) + Q(u - w) = 2 Q(u) + 2 Q(w); its L1 integrand vanishes on
    an isotropic stress.  The factor 2.5 is not a power of two, whose
    scaling would be exact in floating point."""
    grid, state, pcfg = _picard_setup()
    rng = np.random.default_rng(17)
    m = pcfg.n_time_nodes

    def rand_u():
        return dealias(grid, rng.standard_normal((m, 2, grid.n, grid.n)))

    def velocity_integrand(planes, value):
        """Q1 + L1 of a path holding `value` in `planes`, zero elsewhere."""
        path = np.zeros((m, 6, grid.n, grid.kept_columns), complex)
        path[:, planes] = value
        return picard._integrands(path, grid, _PARAMS)[0]

    def q(u):
        return velocity_integrand(slice(0, 2), u)

    u, w = rand_u(), rand_u()
    q_base = q(u)
    scale = np.max(np.abs(q_base)) + 1e-300
    err1 = np.max(np.abs(q(2.5 * u) - 6.25 * q_base)) / scale
    err2 = np.max(np.abs(q(u + w) + q(u - w) - 2.0 * (q_base + q(w)))) / scale

    iso = np.zeros((m, 3, grid.n, grid.kept_columns), dtype=complex)
    iso[:, 2] = 2.0 * dealias(grid, rng.standard_normal((m, grid.n, grid.n)))
    l1_iso = np.max(np.abs(velocity_integrand(slice(2, 5), iso)))
    ok = err1 <= 1e-12 and err2 <= 1e-12 and l1_iso <= 1e-13
    return _result("picard.bilinearity", ok,
                   f"homog {err1:.2e}, parallelogram {err2:.2e}, L1(rho I) {l1_iso:.2e}")


def check_picard_zeroth_semigroup() -> CheckResult:
    grid, state, pcfg = _picard_setup()
    sh0 = picard._initial_coeffs(state)
    sem = picard.semigroup_paths(sh0, grid, _PARAMS, pcfg)
    times = pcfg.times()
    factor = np.exp(-(_PARAMS.kappa * grid.at(grid.k_sq, sh0) + 2.0 * _PARAMS.k)
                    * times[:, None, None])
    err = np.max(np.abs(sem[:, 2:5] - factor[:, None] * sh0[None, 2:5]))
    rho_err = np.max(np.abs(sem[:, 5] - sh0[5]))
    return _result("picard.zeroth_semigroup", err == 0.0 and rho_err == 0.0,
                   f"max gap {err:.2e}, rho {rho_err:.2e}")


def check_picard_q2_consistency() -> CheckResult:
    grid, state, pcfg = _picard_setup()
    sh0 = picard._initial_coeffs(state)
    # The map's stress integrand and the stress rate less its linear part
    # both hold the source 4k rho in c; it is taken from both, so the gap is
    # measured against Q2 alone.
    integrand = picard._integrands(sh0[None], grid, _PARAMS)[1][0]
    lin = -(_PARAMS.kappa * grid.at(grid.k_sq, sh0)) - 2.0 * _PARAMS.k
    expect = rfft2(dynamics.rates(state, _PARAMS)[2:5], grid.kept_columns) - lin * sh0[2:5]
    for planes in (integrand, expect):
        planes[2] -= 4.0 * _PARAMS.k * sh0[5]
    scale = np.max(np.abs(expect)) + 1e-300
    err = np.max(np.abs(integrand - expect)) / scale
    return _result("picard.q2_consistency", err <= 1e-12, f"rel gap {err:.2e}")


def check_picard_fixed_point() -> CheckResult:
    grid, state, pcfg = _picard_setup()
    traj, hist = picard.picard_iterate(state, _PARAMS, pcfg)
    again = picard.apply_map(traj.path, picard._initial_coeffs(state), grid, _PARAMS, pcfg)
    times = pcfg.times()
    change = picard.composite_norm(grid, again - traj.path, times)
    scale = picard.composite_norm(grid, traj.path, times)
    ok = change <= 2.0 * pcfg.tol * max(scale, 1e-300)
    return _result("picard.fixed_point", ok, f"reapplication change {change:.2e}")


def check_picard_stepper_agreement() -> CheckResult:
    _, state, pcfg = _picard_setup(nodes=65)
    traj, _ = picard.picard_iterate(state, _PARAMS, pcfg)
    ctl = StepControl(dt_min=1e-12, dt_max=2e-3, t_end=pcfg.t0, output_every=10**9)
    stepped = run(state, _PARAMS, ctl).final_state
    worst = max(picard.stepper_gaps(traj.state(pcfg.n_time_nodes - 1), stepped).values())
    return _result("picard.stepper_agreement", worst <= 1e-4,
                   f"worst relative L2 gap {worst:.2e}")


def check_determinism() -> CheckResult:
    s1, s2 = (_initial(32, "preset=random_admissible\nseed=42") for _ in range(2))
    same = np.array_equal(s1.planes, s2.planes)
    return _result("cli_io.determinism", same, "seeded builds are bit-identical")


def check_snapshot_roundtrip() -> CheckResult:
    state = _initial(16)
    grid = state.grid
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.snap")
        snapshots.write_snapshot(state, path)
        back = snapshots.read_snapshot(path, grid)
    same = np.array_equal(state.planes, back.planes)
    return _result("cli_io.snapshot_roundtrip", same, "bitwise round trip")


def check_config_validation() -> CheckResult:
    rejected = 0
    for text in ("bogus_key=1\n", "n=32\nn=64\n", "kappa=-1\n", "cfl=2\n"):
        try:
            cfgmod.parse_config(text)
        except cfgmod.ConfigError:
            rejected += 1
    return _result("cli_io.config_validation", rejected == 4,
                   f"{rejected}/4 invalid configs rejected")


ALL_CHECKS = (
    check_transform_roundtrip,
    check_projector,
    check_derivative_exactness,
    check_semigroup_law,
    check_parseval,
    check_gamma_equivalence,
    check_trace_bound,
    check_norm_parseval,
    check_determinant_cancellation,
    check_determinant_order,
    check_energy_rate,
    check_cubic_cancellation,
    check_momentum_divfree,
    check_transport_means,
    check_equilibrium_fixed_point,
    check_temporal_order,
    check_rho_conservation,
    check_run_positivity,
    check_equilibrium_balance,
    check_energy_budget_gate,
    check_positivity_scan,
    check_ledger_sanity,
    check_ledger_overflow,
    check_picard_bilinearity,
    check_picard_zeroth_semigroup,
    check_picard_q2_consistency,
    check_picard_fixed_point,
    check_picard_stepper_agreement,
    check_determinism,
    check_snapshot_roundtrip,
    check_config_validation,
)


def run_checks() -> list:
    results = []
    for fn in ALL_CHECKS:
        try:
            results.append(fn())
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(fn.__name__, False, f"raised {exc!r}"))
    return results
