"""Invariant monitors and the a priori bound ledger.

The ledger evaluates the Gronwall-type bound constants R0..R5 and the
dimensionless combination B literally from initial data, coefficients and
the horizon T, carrying cm/sec units through every operation so the bound
formulas are unit-checked as they are computed.  R0 bounds the energy
budget with no generic constant and is a hard gate; R1..R5 involve the
generic-constant policy value C and are reported as observed/bound ratios
only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import (
    NORM_UNITS,
    PhysParams,
    SimState,
    _parseval,
    norms,
    packed_norms,
)
from .dynamics import determinant, determinant_rhs
from .spectral import SpectralGrid, rfft2
from .units import CM, SEC, UnitValue, uexp, uv


@dataclass(frozen=True)
class EnergyLedger:
    """Energy integral(|u|^2 + K c), dissipation integral(2 nu |grad u|^2 +
    2 k K c), and source 4 k K integral(rho); cm^4/sec^2, /sec^3, /sec^3."""

    energy: float
    dissipation: float
    source: float


COLUMNS = (
    "time", "energy", "dissipation", "source", "min_gamma", "min_rho",
    "u_L2", "grad_u_L2", "sigma_L1", "sigma_L2", "grad_sigma_L2",
    "omega_L2", "c_max",
    "grad_omega_L2", "delta_sigma_L2", "delta_omega_L2", "rho_W12",
)
"""The time-series columns, in CSV order: a record's field or, failing
that, its norm of that name.  `bound_check` reads R0..R5 from them."""


@dataclass(frozen=True)
class DiagnosticsRecord:
    time: float
    energy: float
    dissipation: float
    source: float
    min_gamma: float
    min_rho: float
    c_max: float
    norms: dict

    def row(self) -> tuple:
        """The record's values in `COLUMNS` order."""
        return tuple(self.norms[key] if key in self.norms else getattr(self, key)
                     for key in COLUMNS)


def series(records) -> dict:
    """Records as the `{column: array}` dict that
    `snapshots.read_timeseries` returns for their CSV."""
    return dict(zip(COLUMNS, np.array([rec.row() for rec in records]).T))


@dataclass(frozen=True)
class PositivityReport:
    """Extremes of one positivity scan.  `min_gamma / 2` is the smallest
    stress eigenvalue, min(c/2 - sqrt(a^2 + b^2)), bit for bit: halving is
    exact outside the subnormal range."""

    min_c: float
    min_gamma: float
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


def packed_energy(grid: SpectralGrid, params: PhysParams, sh: np.ndarray,
                  reals: np.ndarray) -> EnergyLedger:
    """The energy ledger from half-spectrum coefficients `sh`, of either
    width, and real planes `reals`, both ordered as `fields.PLANES`."""
    area = grid.area
    u1, u2, _, _, c, rho = reals
    cbar = float(np.mean(c))
    energy = area * (float(np.mean(u1 * u1 + u2 * u2)) + params.bigK * cbar)
    grad_u_sq = _parseval(grid, grid.at(grid.k_sq, sh), sh[0], sh[1])
    dissipation = 2.0 * params.nu * grad_u_sq + 2.0 * params.k * params.bigK * cbar * area
    source = 4.0 * params.k * params.bigK * float(np.mean(rho)) * area
    return EnergyLedger(energy, dissipation, source)


def energy_ledger(state: SimState, params: PhysParams) -> EnergyLedger:
    return packed_energy(state.grid, params, rfft2(state.planes), state.planes)


def _positivity(planes: np.ndarray, tol: float) -> PositivityReport:
    """The positivity scan of state planes (6, n, n): extremes of c and rho,
    and min gamma = c - 2 sqrt(a^2 + b^2).  `tol` only decides `passed`."""
    a, b, c, rho = planes[2:6]
    max_c = float(np.max(c))
    max_rho = float(np.max(rho))
    min_gamma = float(np.min(c - 2.0 * np.sqrt(a * a + b * b)))
    min_rho = float(np.min(rho))
    passed = (
        min_gamma >= -tol * max(1.0, max_c)
        and min_rho >= -tol * max(1.0, max_rho)
    )
    return PositivityReport(
        min_c=float(np.min(c)),
        min_gamma=min_gamma,
        min_rho=min_rho,
        max_c=max_c,
        max_rho=max_rho,
        tol=tol,
        passed=bool(passed),
    )


def positivity_report(state: SimState, tol: float) -> PositivityReport:
    return _positivity(state.planes, tol)


def make_record(grid: SpectralGrid, time: float, sh: np.ndarray, reals: np.ndarray,
                pos: PositivityReport, led: EnergyLedger) -> DiagnosticsRecord:
    """One diagnostics record of an accepted state, from what `run` already
    holds for it: the packed coefficients `sh` (kept width) and real planes
    `reals` of its one `dynamics._terms(sh, planes=True)` evaluation, both
    ordered as `fields.PLANES`, its positivity scan `pos` and its energy
    ledger `led`.  Only the norms are computed here; no transform of the
    state is repeated."""
    return DiagnosticsRecord(
        time=time,
        energy=led.energy,
        dissipation=led.dissipation,
        source=led.source,
        min_gamma=pos.min_gamma,
        min_rho=pos.min_rho,
        c_max=pos.max_c,
        norms=packed_norms(grid, sh, reals),
    )


# --- a priori bound ledger ------------------------------------------------

def apriori_ledger(initial: SimState, params: PhysParams, T: float,
                   constant_c: float = 1.0) -> BoundLedger:
    """Evaluate R0..R5 and B from the initial data over the horizon T.

    Every generic constant is set to `constant_c` (default 1) and recorded.
    Exponential overflow produces +inf entries flagged `overflowed`, never
    an exception: the bounds are legitimately astronomic for small nu*kappa.
    At kappa = 0 every bound past R0 divides by kappa, so R1..R5 and B are
    +inf entries flagged `overflowed`; R0 stays finite and remains the gate.
    A negative or non-finite `constant_c` raises `ValueError`.
    """
    if not T > 0.0:
        raise ValueError("T must be positive")
    if not 0.0 <= constant_c < math.inf:
        raise ValueError("constant_c must be non-negative and finite")
    rep = norms(initial)

    C = uv(constant_c)
    nu = uv(params.nu, CM ** 2 / SEC)
    # A unit stand-in for kappa = 0 keeps the arithmetic finite, so the
    # entries still carry their derived units; their values are replaced.
    kappa = uv(params.kappa or 1.0, CM ** 2 / SEC)
    k = uv(params.k, SEC ** -1)
    bigK = uv(params.bigK, (CM / SEC) ** 2)
    horizon = uv(T, SEC)

    def norm(key, power=1):
        return uv(rep[key] ** power, NORM_UNITS[key] ** power)

    u0_sq = norm("u_L2", 2)
    sig_l1 = norm("sigma_L1")
    sig_l2_sq = norm("sigma_L2", 2)
    grad_sig_sq = norm("grad_sigma_L2", 2)
    om_sq = norm("omega_L2", 2)
    grad_om_sq = norm("grad_omega_L2", 2)
    rho_l1 = norm("rho_L1")
    rho_l2_sq = norm("rho_L2", 2)
    rho_w12 = norm("rho_W12")

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


# The R0 gate's relative quadrature tolerance.
_REL_TOL = 1e-6


@np.errstate(over="ignore", invalid="ignore")
def bound_check(columns: dict, ledger: BoundLedger, params: PhysParams) -> tuple:
    """The rows R0..R5 of a time series against the ledger.  `columns` is
    the `{column: array}` dict of `COLUMNS` that `series(records)` and
    `snapshots.read_timeseries` give.

    R0 is the constant-free energy budget, a strict pass/fail:
    sup_t [ ||u||^2 + K ||sigma||_L1 + 2 nu int_0^t ||grad u||^2 ] <= R0
    at the quadrature tolerance `_REL_TOL`.  A norm whose square overflows
    makes the observed value +inf, which fails the gate.  The budget is
    summed with every norm scaled by a power of two that makes R0 of order
    one: the scaling is exact, so a normal R0 gets the result it would
    unscaled, while squares that would be subnormal keep full precision.
    A subnormal R0 (below 2^-1022) is itself three terms, each rounded to
    a multiple of 2^-1074, so it may be low by 1.5 such units; the gate
    allows that much beyond `_REL_TOL`.

    R1..R5 carry generic constants, so their rows are observed/bound ratios
    only: sup_t [ ||f||^2 + coeff int_0^t ||g||^2 ] for R1..R4 and
    sup_t ||rho||_W12 for R5.
    """
    times = columns["time"]
    bound0 = ledger.R0.value
    s = -(math.frexp(bound0)[1] // 2) if 0.0 < bound0 < math.inf else 0
    u_sq, grad_u_sq = (np.ldexp(columns[key], s) ** 2 for key in ("u_L2", "grad_u_L2"))
    obs0 = _running_sup(times, u_sq + params.bigK * np.ldexp(columns["sigma_L1"], 2 * s),
                        grad_u_sq, 2.0 * params.nu)
    scaled_bound0 = math.ldexp(bound0, 2 * s)
    slack = math.ldexp(1.5, 2 * s - 1074) if bound0 < sys.float_info.min else 0.0
    passed = obs0 <= scaled_bound0 * (1.0 + _REL_TOL) + slack
    rows = [_row("R0", float(np.ldexp(obs0, -2 * s)), bound0, bool(passed))]
    for name, sup_key, integrand_key, coeff in (
        ("R1", "sigma_L2", "grad_sigma_L2", params.kappa),
        ("R2", "omega_L2", "grad_omega_L2", params.nu),
        ("R3", "grad_sigma_L2", "delta_sigma_L2", params.kappa),
        ("R4", "grad_omega_L2", "delta_omega_L2", params.nu),
    ):
        obs = _running_sup(times, columns[sup_key] ** 2, columns[integrand_key] ** 2, coeff)
        rows.append(_row(name, obs, getattr(ledger, name).value))
    rows.append(_row("R5", float(np.max(columns["rho_W12"])), ledger.R5.value))
    return tuple(rows)


def determinant_residual(states, params: PhysParams) -> float:
    """L^2 residual of the determinant law on a uniformly spaced window of
    consecutive states: the centered time difference of
    `dynamics.determinant` minus the law's rate `dynamics.determinant_rhs`
    at each inner state.

    Requires kappa = 0, where the law is closed.
    """
    states = list(states)
    if len(states) < 3:
        raise ValueError("need at least three consecutive states")
    if params.kappa != 0.0:
        raise ValueError("determinant residual requires kappa = 0")

    times = [s.time for s in states]
    dts = np.diff(times)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * max(dts[0], 1e-300):
        raise ValueError("window must be uniformly spaced in time")

    area = states[0].grid.area
    worst = 0.0
    for j in range(1, len(states) - 1):
        before, after = (determinant(s.planes) for s in (states[j - 1], states[j + 1]))
        resid = (after - before) / (2.0 * dts[j]) - determinant_rhs(states[j], params)
        worst = max(worst, float(np.sqrt(np.mean(resid * resid) * area)))
    return worst
