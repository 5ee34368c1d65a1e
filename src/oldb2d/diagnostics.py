"""Invariant monitors and the a priori bound ledger.

The ledger evaluates the Gronwall-type bound constants R0..R5 and the
dimensionless combination B literally from initial data, coefficients and
the horizon T, carrying cm/sec units through every operation so the bound
formulas are unit-checked as they are computed.  R0 bounds the energy
budget with no generic constant and is a hard gate; R1..R5 involve the
generic-constant policy value C and are reported as informational ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dynamics
from .fields import (
    NormReport,
    PhysParams,
    SimState,
    _parseval,
    norms,
    packed_norms,
)
from .spectral import SpectralGrid, ddx, laplacian, rfft2, scalar_field
from .units import CM, DIMENSIONLESS, MIXED, SEC, UnitValue, uexp, uv


@dataclass(frozen=True)
class EnergyLedger:
    """Energy integral(|u|^2 + K c), dissipation integral(2 nu |grad u|^2 +
    2 k K c), and source 4 k K integral(rho); cm^4/sec^2, /sec^3, /sec^3."""

    energy: float
    dissipation: float
    source: float


@dataclass(frozen=True)
class DiagnosticsRecord:
    time: float
    energy: float
    dissipation: float
    source: float
    min_gamma: float
    min_rho: float
    min_c: float
    min_eig: float
    c_max: float
    norms: NormReport
    determinant_residual: float
    momentum_residual: float


@dataclass(frozen=True)
class PositivityReport:
    min_c: float
    min_gamma: float
    min_eig: float
    min_rho: float
    max_c: float
    max_rho: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class LedgerEntry:
    value: float
    units: str
    overflowed: bool


@dataclass(frozen=True)
class BoundLedger:
    """A priori constants evaluated from the initial state over [0, T]."""

    R0: LedgerEntry
    R1: LedgerEntry
    R2: LedgerEntry
    R3: LedgerEntry
    R4: LedgerEntry
    R5: LedgerEntry
    B: LedgerEntry
    constant_c: float
    horizon: float

    def entries(self) -> dict:
        return {k: getattr(self, k) for k in ("R0", "R1", "R2", "R3", "R4", "R5", "B")}


@dataclass(frozen=True)
class BoundRow:
    name: str
    observed: float
    bound: float
    ratio: float
    hard: bool
    passed: bool | None


@dataclass(frozen=True)
class BoundCheckReport:
    rows: tuple


def packed_energy(grid: SpectralGrid, params: PhysParams, sh: np.ndarray,
                  reals: np.ndarray) -> EnergyLedger:
    """The energy ledger from half-spectrum coefficients `sh` and real planes
    `reals`, both ordered as `fields.PLANES`."""
    area = grid.area
    u1, u2, _, _, c, rho = reals
    cbar = float(np.mean(c))
    energy = area * (float(np.mean(u1 * u1 + u2 * u2)) + params.bigK * cbar)
    grad_u_sq = _parseval(grid, grid.k_sq, sh[0], sh[1])
    dissipation = 2.0 * params.nu * grad_u_sq + 2.0 * params.k * params.bigK * cbar * area
    source = 4.0 * params.k * params.bigK * float(np.mean(rho)) * area
    return EnergyLedger(energy, dissipation, source)


def energy_ledger(state: SimState, params: PhysParams) -> EnergyLedger:
    return packed_energy(state.grid, params, rfft2(state.planes), state.planes)


def _positivity(planes: np.ndarray, tol: float) -> PositivityReport:
    """The positivity scan of state planes (6, n, n): extremes of c and rho,
    and min gamma = c - 2 r and the min eigenvalue c/2 - r from one root
    r = sqrt(a^2 + b^2).  `tol` only decides `passed`."""
    a, b, c, rho = planes[2:6]
    root = np.sqrt(a * a + b * b)
    max_c = float(np.max(c))
    max_rho = float(np.max(rho))
    min_gamma = float(np.min(c - 2.0 * root))
    min_rho = float(np.min(rho))
    passed = (
        min_gamma >= -tol * max(1.0, max_c)
        and min_rho >= -tol * max(1.0, max_rho)
    )
    return PositivityReport(
        min_c=float(np.min(c)),
        min_gamma=min_gamma,
        min_eig=float(np.min(0.5 * c - root)),
        min_rho=min_rho,
        max_c=max_c,
        max_rho=max_rho,
        tol=tol,
        passed=bool(passed),
    )


def positivity_report(state: SimState, tol: float) -> PositivityReport:
    return _positivity(state.planes, tol)


def _packed_momentum_residual(grid: SpectralGrid, params: PhysParams, sh: np.ndarray,
                              f: np.ndarray) -> float:
    """L^2 norm of (force - grad p) - du from the unprojected explicit force
    f = `dynamics._terms(sh)[0:2]`: force = f + nu lap(u) before projection,
    p solves lap(p) = div(f), and du = P(f) + nu lap(u) is the
    Leray-projected rate the stepper integrates.  The pressure gradient must
    reproduce the removed gradient part."""
    visc = -params.nu * grid.k_sq * sh[0:2]
    ik = np.stack([grid.ikx, grid.iky])
    k = np.stack([grid.kx, grid.ky])
    ph = -grid.inv_k_sq_d * np.sum(ik * f, axis=0)
    kd = grid.inv_k_sq_d * np.sum(k * f, axis=0)
    r = (f + visc) - ik * ph - (f - k * kd + visc)
    return math.sqrt(_parseval(grid, 1.0, r[0], r[1]))


def momentum_residual(state: SimState, params: PhysParams) -> float:
    """L^2 norm of (unprojected force - grad p) - momentum_rhs; the pressure
    recovery must reproduce the discarded gradient part to rounding."""
    sh = dynamics.pack_state(state)
    return _packed_momentum_residual(state.grid, params, sh,
                                     dynamics._terms(state.grid, params, sh)[0:2])


def make_record(grid: SpectralGrid, params: PhysParams, time: float, sh: np.ndarray,
                reals: np.ndarray, force: np.ndarray, *,
                determinant_residual: float = float("nan")) -> DiagnosticsRecord:
    """One diagnostics record of an accepted state, from what the stepper's
    one evaluation of it, `dynamics._terms(sh, planes=True)`, holds: the
    half-spectrum coefficients `sh`, the real planes `reals`, both ordered
    as `fields.PLANES`, and the unprojected force `force` = nh[0:2],
    read before the stepper projects it.  No transform of the state is
    repeated here."""
    rep = packed_norms(grid, sh, reals)
    led = packed_energy(grid, params, sh, reals)
    pos = _positivity(reals, tol=0.0)
    return DiagnosticsRecord(
        time=time,
        energy=led.energy,
        dissipation=led.dissipation,
        source=led.source,
        min_gamma=pos.min_gamma,
        min_rho=pos.min_rho,
        min_c=pos.min_c,
        min_eig=pos.min_eig,
        c_max=rep["c_max"],
        norms=rep,
        determinant_residual=determinant_residual,
        momentum_residual=_packed_momentum_residual(grid, params, sh, force),
    )


# --- a priori bound ledger ------------------------------------------------

_U_L2SQ = (CM ** 2 / SEC) ** 2        # ||u||_L2^2
_SIG_L1 = CM ** 2
_SIG_L2SQ = CM ** 2
_GRAD_SIG_L2SQ = DIMENSIONLESS
_OMEGA_L2SQ = (CM / SEC) ** 2
_GRAD_OMEGA_L2SQ = SEC ** -2
_RHO_L1 = CM ** 2
_RHO_L2SQ = CM ** 2


def apriori_ledger(initial: SimState, params: PhysParams, T: float,
                   constant_c: float = 1.0) -> BoundLedger:
    """Evaluate R0..R5 and B from the initial data over the horizon T.

    Every generic constant is set to `constant_c` (default 1) and recorded.
    Exponential overflow produces +inf entries flagged `overflowed`, never
    an exception: the bounds are legitimately astronomic for small nu*kappa.
    At kappa = 0 every bound past R0 divides by kappa, so R1..R5 and B are
    +inf entries flagged `overflowed`; R0 stays finite and remains the gate.
    """
    if not T > 0.0:
        raise ValueError("T must be positive")
    rep = norms(initial)

    C = uv(constant_c)
    nu = uv(params.nu, CM ** 2 / SEC)
    # A unit stand-in for kappa = 0 keeps the arithmetic finite, so the
    # entries still carry their derived units; their values are replaced.
    kappa = uv(params.kappa or 1.0, CM ** 2 / SEC)
    k = uv(params.k, SEC ** -1)
    bigK = uv(params.bigK, (CM / SEC) ** 2)
    horizon = uv(T, SEC)

    u0_sq = uv(rep["u_L2"] ** 2, _U_L2SQ)
    sig_l1 = uv(rep["sigma_L1"], _SIG_L1)
    sig_l2_sq = uv(rep["sigma_L2"] ** 2, _SIG_L2SQ)
    grad_sig_sq = uv(rep["grad_sigma_L2"] ** 2, _GRAD_SIG_L2SQ)
    om_sq = uv(rep["omega_L2"] ** 2, _OMEGA_L2SQ)
    grad_om_sq = uv(rep["grad_omega_L2"] ** 2, _GRAD_OMEGA_L2SQ)
    rho_l1 = uv(rep["rho_L1"], _RHO_L1)
    rho_l2_sq = uv(rep["rho_L2"] ** 2, _RHO_L2SQ)
    rho_w12 = uv(rep["rho_W12"], MIXED)

    four = uv(4.0)

    r0 = u0_sq + bigK * sig_l1 + four * k * bigK * horizon * rho_l1

    gronwall = uexp(r0 / (nu * kappa))
    sig_bracket = sig_l2_sq + k * horizon * rho_l2_sq
    r1 = C * gronwall * sig_bracket

    r2 = (C * bigK * bigK / (kappa * nu)) * gronwall * sig_bracket + om_sq

    b = (C / (kappa * (kappa * nu).sqrt())) * r1 * r2

    r3 = C * gronwall * (grad_sig_sq + b + (k * k * horizon / kappa) * rho_l2_sq)

    r4_exp = uexp(C * (nu ** Fraction(-3, 2)) * (horizon * r0 * r2).sqrt())
    r4 = C * r4_exp * (grad_om_sq + (bigK * bigK / (nu * kappa)) * r3)

    r5_exp = uexp(
        (nu ** Fraction(-1, 4))
        * (r2 ** Fraction(1, 4))
        * (horizon ** Fraction(3, 4))
        * (r4 ** Fraction(1, 4))
    )
    r5 = r5_exp * rho_w12

    def entry(x: UnitValue, singular: bool) -> LedgerEntry:
        value = math.inf if singular else x.value
        return LedgerEntry(value, str(x.unit), not math.isfinite(value))

    singular = params.kappa == 0.0
    return BoundLedger(
        R0=entry(r0, False), R1=entry(r1, singular), R2=entry(r2, singular),
        R3=entry(r3, singular), R4=entry(r4, singular), R5=entry(r5, singular),
        B=entry(b, singular), constant_c=constant_c, horizon=T,
    )


def _records_of(traj) -> list:
    return list(traj.records) if hasattr(traj, "records") else list(traj)


def _running_sup(times, sup_part, integrand, coeff) -> float:
    """max over t of [sup_part(t) + coeff * integral_0^t integrand ds] by
    trapezoid over the recorded times."""
    acc = 0.0
    best = sup_part[0]
    for i in range(1, len(times)):
        acc += 0.5 * (times[i] - times[i - 1]) * (integrand[i] + integrand[i - 1])
        best = max(best, sup_part[i] + coeff * acc)
    return best


def _row(name: str, obs: float, bound: float, passed: bool | None = None) -> BoundRow:
    ratio = obs / bound if bound > 0 else (0.0 if obs == 0.0 else float("inf"))
    return BoundRow(name, obs, bound, ratio, hard=passed is not None, passed=passed)


@np.errstate(over="ignore", invalid="ignore")
def _budget_rows(times, column, ledger: BoundLedger, params: PhysParams,
                 rel_tol: float) -> list:
    """The hard R0 row, sup_t [ ||u||^2 + K ||sigma||_L1 + 2 nu int_0^t
    ||grad u||^2 ] <= R0 at the quadrature tolerance, and the R1 ratio row.
    `column(key)` gives one norm at the recorded times; the time-series CSV
    carries the columns of exactly these two rows.  A norm whose square
    overflows makes the observed value +inf, which fails the gate."""
    obs0 = _running_sup(times, column("u_L2") ** 2 + params.bigK * column("sigma_L1"),
                        column("grad_u_L2") ** 2, 2.0 * params.nu)
    bound0 = ledger.R0.value
    passed = bool(obs0 <= bound0 * (1.0 + rel_tol) or obs0 == bound0 == 0.0)
    obs1 = _running_sup(times, column("sigma_L2") ** 2, column("grad_sigma_L2") ** 2,
                        params.kappa)
    return [_row("R0", obs0, bound0, passed), _row("R1", obs1, ledger.R1.value)]


def bound_check(traj, ledger: BoundLedger, params: PhysParams,
                rel_tol: float = 1e-6) -> BoundCheckReport:
    """Compare trajectory norms against the ledger.

    The R0 row is the constant-free energy budget and a strict pass/fail
    (see `_budget_rows`).  The remaining rows carry generic constants, so
    only observed/bound ratios are reported.
    """
    recs = _records_of(traj)
    times = np.array([r.time for r in recs])

    def series(key):
        return np.array([r.norms[key] for r in recs])

    rows = _budget_rows(times, series, ledger, params, rel_tol)
    for name, sup_key, integrand_key, coeff in (
        ("R2", "omega_L2", "grad_omega_L2", params.nu),
        ("R3", "grad_sigma_L2", "delta_sigma_L2", params.kappa),
        ("R4", "grad_omega_L2", "delta_omega_L2", params.nu),
    ):
        obs = _running_sup(times, series(sup_key) ** 2, series(integrand_key) ** 2, coeff)
        rows.append(_row(name, obs, getattr(ledger, name).value))
    rows.append(_row("R5", float(np.max(series("rho_W12"))), ledger.R5.value))
    return BoundCheckReport(tuple(rows))


def determinant_residual(states, params: PhysParams, *, informational: bool = False) -> float:
    """L^2 residual of the determinant law on a uniformly spaced window of
    consecutive states, with centered time differencing.

    Requires kappa = 0, where d = c^2/4 - a^2 - b^2 obeys the closed law
    d_t d + u.grad(d) + 4k d - 2k rho c = 0.  With informational=True a
    kappa > 0 window is accepted and the diffusion-induced correction
    kappa*(c/2 lap(c) - 2a lap(a) - 2b lap(b)) is included in the law.
    """
    states = list(states)
    if len(states) < 3:
        raise ValueError("need at least three consecutive states")
    if params.kappa != 0.0 and not informational:
        raise ValueError("determinant residual requires kappa = 0 "
                         "(pass informational=True to include the diffusion term)")

    times = [s.time for s in states]
    dts = np.diff(times)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * max(dts[0], 1e-300):
        raise ValueError("window must be uniformly spaced in time")

    g = states[0].grid

    def det_values(s: SimState):
        a, b, c = s.planes[2:5]
        return 0.25 * c * c - a * a - b * b

    worst = 0.0
    for j in range(1, len(states) - 1):
        s = states[j]
        dt = times[j + 1] - times[j]
        ddt = (det_values(states[j + 1]) - det_values(states[j - 1])) / (2.0 * dt)
        d = det_values(s)
        dh = scalar_field(g, d).as_spectral()
        d1, d2 = ddx(dh, 1).values, ddx(dh, 2).values
        u1, u2, a, b, c, rho = s.planes
        resid = (
            ddt + u1 * d1 + u2 * d2 + 4.0 * params.k * d
            - 2.0 * params.k * rho * c
        )
        if params.kappa != 0.0:
            lap = lambda f: laplacian(scalar_field(g, f)).values
            resid -= params.kappa * (0.5 * c * lap(c) - 2.0 * a * lap(a) - 2.0 * b * lap(b))
        worst = max(worst, float(np.sqrt(np.mean(resid * resid) * g.area)))
    return worst
