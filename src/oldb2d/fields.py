"""Domain state types: physical coefficients, symmetric stress in (a, b, c)
coordinates, bundled simulation states and norm reports.

The stress matrix is stored through a = (s11 - s22)/2, b = s12 and the trace
c = s11 + s22, so symmetry is structural.  Positive semi-definiteness is
equivalent to gamma = c - 2*sqrt(a^2 + b^2) >= 0 pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    divergence,
    l2_scale,
    rfft2,
    same_grid,
    scalar_field,
)
from .units import CM, DIMENSIONLESS, MIXED, SEC


@dataclass(frozen=True)
class PhysParams:
    """Physical coefficients: viscosity nu and stress diffusivity kappa in
    cm^2/sec, damping frequency k in 1/sec, coupling K in cm^2/sec^2."""

    nu: float
    kappa: float
    k: float
    bigK: float

    def __post_init__(self):
        if not self.nu > 0.0:
            raise ValueError("nu must be positive")
        if not self.kappa >= 0.0:
            raise ValueError("kappa must be nonnegative")
        if not self.k > 0.0:
            raise ValueError("k must be positive")
        if not self.bigK > 0.0:
            raise ValueError("bigK must be positive")


@dataclass(frozen=True)
class StressField:
    """Symmetric 2x2 stress field in (a, b, c) coordinates."""

    a: ScalarField
    b: ScalarField
    c: ScalarField

    def __post_init__(self):
        if not (same_grid(self.a.grid, self.b.grid) and same_grid(self.a.grid, self.c.grid)):
            raise ValueError("stress components must share a grid")

    @property
    def grid(self) -> SpectralGrid:
        return self.a.grid

    def as_real(self) -> "StressField":
        return StressField(self.a.as_real(), self.b.as_real(), self.c.as_real())


def stress_from_matrix(s11: ScalarField, s12: ScalarField, s22: ScalarField) -> StressField:
    """Convert matrix components to (a, b, c) = ((s11-s22)/2, s12, s11+s22)."""
    if not (same_grid(s11.grid, s12.grid) and same_grid(s11.grid, s22.grid)):
        raise ValueError("matrix components must share a grid")
    g = s11.grid
    v11, v12, v22 = s11.values, s12.values, s22.values
    return StressField(
        scalar_field(g, 0.5 * (v11 - v22)),
        scalar_field(g, v12.copy()),
        scalar_field(g, v11 + v22),
    )


def matrix_from_stress(s: StressField):
    """Matrix components (s11, s12, s22) recovered from (a, b, c)."""
    g = s.grid
    a, b, c = s.a.values, s.b.values, s.c.values
    return (
        scalar_field(g, 0.5 * c + a),
        scalar_field(g, b.copy()),
        scalar_field(g, 0.5 * c - a),
    )


def min_eigenvalue(s: StressField) -> ScalarField:
    """Pointwise smaller eigenvalue c/2 - sqrt(a^2 + b^2)."""
    a, b, c = s.a.values, s.b.values, s.c.values
    return scalar_field(s.grid, 0.5 * c - np.sqrt(a * a + b * b))


def gamma_field(s: StressField) -> ScalarField:
    """Pointwise c - 2*sqrt(a^2 + b^2); twice the smaller eigenvalue."""
    a, b, c = s.a.values, s.b.values, s.c.values
    return scalar_field(s.grid, c - 2.0 * np.sqrt(a * a + b * b))


# The order of the packed state planes, in `SimState.planes`, the stepper's
# half spectrum and snapshot files.
PLANES = ("u1", "u2", "a", "b", "c", "rho")


@dataclass(frozen=True, eq=False)
class SimState:
    """The coupled unknowns (u, sigma, rho) at one time instant, held as one
    real (6, n, n) array `planes` ordered as `PLANES`.  `u`, `stress` and
    `rho` are views of it; `sim_state` stacks a state from component
    fields."""

    time: float
    grid: SpectralGrid
    planes: np.ndarray

    def __post_init__(self):
        shape = (len(PLANES), self.grid.n, self.grid.n)
        if self.planes.shape != shape:
            raise ValueError(f"state planes have shape {self.planes.shape}, expected {shape}")
        if self.planes.dtype != np.float64:
            raise ValueError(f"state planes must be float64, not {self.planes.dtype}")

    @property
    def u(self) -> VectorField:
        return VectorField(self.grid, self.planes[0:2])

    @property
    def stress(self) -> StressField:
        return StressField(*(ScalarField(self.grid, p) for p in self.planes[2:5]))

    @property
    def rho(self) -> ScalarField:
        return ScalarField(self.grid, self.planes[5])

    def validate(self):
        """Check the construction invariants: u divergence-free, rho >= 0.
        The divergence is measured against |u| times the lowest wavenumber
        2 pi / L, so the test does not depend on the unit of length; |u| is
        summed on u scaled to a unit peak, so its squares do not underflow
        for a tiny velocity."""
        u = self.u.as_spectral()
        du = divergence(u).data
        k_low = 2.0 * np.pi / self.grid.length
        peak = float(np.max(np.abs(u.data)))
        size = peak * l2_scale(self.grid, u.data / peak) if peak > 0.0 else 0.0
        if np.max(np.abs(du)) > 1e-12 * max(k_low * size, 1e-300):
            raise ValueError("velocity is not divergence-free")
        r = self.planes[5]
        if np.min(r) < -1e-10 * max(float(np.max(r)), 1.0):
            raise ValueError("rho has a negative excursion beyond tolerance")


def sim_state(time, u: VectorField, stress: StressField, rho: ScalarField) -> SimState:
    """A `SimState` stacked from component fields in either space; the one
    place that copies components into the packed layout."""
    grid = u.grid
    if not (same_grid(grid, stress.grid) and same_grid(grid, rho.grid)):
        raise ValueError("state components must share a grid")
    return SimState(time, grid, np.stack(
        [*u.values, stress.a.values, stress.b.values, stress.c.values, rho.values],
        dtype=float))


@dataclass(frozen=True)
class NormReport:
    """Named norms with unit annotations; all values are nonnegative."""

    values: dict
    units: dict

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    def unit(self, key: str) -> str:
        return self.units[key]


# Unit tags for each norm entry, derived from u ~ cm/sec and sigma, rho
# dimensionless, with the L^p integral over a cm^2 area.
_NORM_UNITS = {
    "u_L2": CM ** 2 / SEC,
    "u_L4": CM ** Fraction(3, 2) / SEC,
    "grad_u_L2": CM / SEC,
    "sigma_L1": CM ** 2,
    "sigma_L2": CM,
    "sigma_L4": CM ** Fraction(1, 2),
    "grad_sigma_L2": DIMENSIONLESS,
    "delta_sigma_L2": CM ** -1,
    "omega_L2": CM / SEC,
    "grad_omega_L2": SEC ** -1,
    "delta_omega_L2": (CM * SEC) ** -1,
    "rho_L1": CM ** 2,
    "rho_L2": CM,
    "grad_rho_L2": DIMENSIONLESS,
    "rho_W12": MIXED,
    "c_max": DIMENSIONLESS,
}


def _sq_int(grid, *real_arrays) -> float:
    total = 0.0
    for arr in real_arrays:
        total += float(np.mean(arr * arr))
    return total * grid.area


def _l4(grid, density) -> float:
    """(int density^2)^(1/4) of a nonnegative pointwise density, such as
    |u|^2, computed on density / max(density): no fourth power of a field
    value is formed, so it cannot overflow."""
    peak = float(np.max(density))
    if peak == 0.0:
        return 0.0
    return np.sqrt(peak) * (float(np.mean((density / peak) ** 2)) * grid.area) ** 0.25


def _parseval(grid, weight, *coeffs) -> float:
    """area * sum of weight * |f_k|^2 over the full spectrum, from rfft2
    half-spectrum coefficients: `grid.weights` counts every column whose
    conjugate partner the half spectrum omits twice."""
    w = grid.weights * weight
    return grid.area * sum(float(np.vdot(ch, w * ch).real) for ch in coeffs)


def norms(state: SimState) -> NormReport:
    """Every norm used by the diagnostics and the a priori bound ledger.
    The planes are not masked: masking would move the norms of any state
    that is not band-limited."""
    return packed_norms(state.grid, rfft2(state.planes), state.planes)


def packed_norms(grid: SpectralGrid, sh: np.ndarray, reals: np.ndarray) -> NormReport:
    """`norms` from half-spectrum coefficients `sh` (6, n, n//2+1) and real
    planes `reals` (6, n, n), both ordered as `PLANES`.

    The stress L^1 norm is the trace integral; L^2-type stress norms are
    Frobenius, i.e. the density c^2/2 + 2a^2 + 2b^2 in (a, b, c) variables.
    """
    area = grid.area
    u1, u2, a, b, c, rho = reals
    u1h, u2h, ah, bh, ch, rhoh = sh
    omh = grid.ikx * u2h - grid.iky * u1h

    ksq = grid.k_sq
    ksq2 = ksq * ksq

    vals = {}
    vals["u_L2"] = np.sqrt(_sq_int(grid, u1, u2))
    vals["u_L4"] = _l4(grid, u1 * u1 + u2 * u2)
    vals["grad_u_L2"] = np.sqrt(_parseval(grid, ksq, u1h, u2h))

    vals["sigma_L1"] = float(np.mean(c)) * area
    frob = 0.5 * c * c + 2.0 * a * a + 2.0 * b * b
    vals["sigma_L2"] = np.sqrt(float(np.mean(frob)) * area)
    vals["sigma_L4"] = _l4(grid, frob)
    grad_sig_sq = (
        0.5 * _parseval(grid, ksq, ch)
        + 2.0 * _parseval(grid, ksq, ah, bh)
    )
    vals["grad_sigma_L2"] = np.sqrt(grad_sig_sq)
    delta_sig_sq = (
        0.5 * _parseval(grid, ksq2, ch)
        + 2.0 * _parseval(grid, ksq2, ah, bh)
    )
    vals["delta_sigma_L2"] = np.sqrt(delta_sig_sq)

    vals["omega_L2"] = np.sqrt(_parseval(grid, 1.0, omh))
    vals["grad_omega_L2"] = np.sqrt(_parseval(grid, ksq, omh))
    vals["delta_omega_L2"] = np.sqrt(_parseval(grid, ksq2, omh))

    vals["rho_L1"] = float(np.mean(np.abs(rho))) * area
    rho_l2_sq = _sq_int(grid, rho)
    grad_rho_sq = _parseval(grid, ksq, rhoh)
    vals["rho_L2"] = np.sqrt(rho_l2_sq)
    vals["grad_rho_L2"] = np.sqrt(grad_rho_sq)
    vals["rho_W12"] = np.sqrt(rho_l2_sq + grad_rho_sq)

    vals["c_max"] = float(np.max(c))

    vals = {k: float(v) for k, v in vals.items()}
    units = {k: str(_NORM_UNITS[k]) for k in vals}
    return NormReport(vals, units)
