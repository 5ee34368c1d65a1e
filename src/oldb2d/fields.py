"""Domain state types: physical coefficients, the packed simulation state,
and the norms with their units.

The stress matrix is stored through a = (s11 - s22)/2, b = s12 and the trace
c = s11 + s22, so symmetry is structural.  Positive semi-definiteness is
equivalent to gamma = c - 2*sqrt(a^2 + b^2) >= 0 pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Field, SpectralGrid, l2_scale, rfft2
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


# The order of the packed state planes, in `SimState.planes`, the stepper's
# half spectrum, the Picard path and snapshot files.
PLANES = ("u1", "u2", "a", "b", "c", "rho")

# The linear operator of each plane, an index into `linear_operators`:
# viscosity on u, diffusion and damping on the stress, none on rho.
PLANE_OPERATOR = (0, 0, 1, 1, 1, 2)


def linear_operators(params: PhysParams) -> tuple:
    """The (diffusivity, damping) pair of each linear operator, so that the
    linear part of a plane under operator (D, g) is D lap - g; the stepper's
    integrating factors, `dynamics.rates` and the Picard heat factors all
    read it."""
    return (params.nu, 0.0), (params.kappa, 2.0 * params.k), (0.0, 0.0)


# The planes of each linear operator as one slice: they are contiguous.
OPERATOR_PLANES = tuple(slice(PLANE_OPERATOR.index(op),
                              PLANE_OPERATOR.index(op) + PLANE_OPERATOR.count(op))
                        for op in range(max(PLANE_OPERATOR) + 1))


@dataclass(frozen=True, eq=False)
class SimState:
    """The coupled unknowns (u, sigma, rho) at one time instant, held as one
    real (6, n, n) array `planes` ordered as `PLANES`."""

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
    def rho(self) -> Field:
        """A view of the density plane.  Kept for the benchmark harness,
        its one reader; the program reads `planes[5]`."""
        return Field(self.grid, self.planes[5])

    def validate(self):
        """Check the construction invariants: u divergence-free, rho >= 0.
        The divergence is measured against |u| times the lowest wavenumber
        2 pi / L, so the test does not depend on the unit of length; |u| is
        summed on |u_k| scaled to a unit peak, so its squares do not
        underflow for a tiny velocity; the scaling divides reals, as a
        complex division by a subnormal peak overflows."""
        g = self.grid
        uh = rfft2(self.planes[0:2])
        du = g.ikx * uh[0] + g.iky * uh[1]
        k_low = 2.0 * np.pi / g.length
        peak = float(np.max(np.abs(uh)))
        size = peak * l2_scale(g, np.abs(uh) / peak) if peak > 0.0 else 0.0
        if np.max(np.abs(du)) > 1e-12 * max(k_low * size, 1e-300):
            raise ValueError("velocity is not divergence-free")
        r = self.planes[5]
        if np.min(r) < -1e-10 * max(float(np.max(r)), 1.0):
            raise ValueError("rho has a negative excursion beyond tolerance")


# The unit of each `norms` entry, derived from u ~ cm/sec and sigma, rho
# dimensionless, with the L^p integral over a cm^2 area; the a priori
# ledger tags its inputs from this table.
NORM_UNITS = {
    "u_L2": CM ** 2 / SEC,
    "grad_u_L2": CM / SEC,
    "sigma_L1": CM ** 2,
    "sigma_L2": CM,
    "grad_sigma_L2": DIMENSIONLESS,
    "delta_sigma_L2": CM ** -1,
    "omega_L2": CM / SEC,
    "grad_omega_L2": SEC ** -1,
    "delta_omega_L2": (CM * SEC) ** -1,
    "rho_L1": CM ** 2,
    "rho_L2": CM,
    "grad_rho_L2": DIMENSIONLESS,
    "rho_W12": MIXED,
}


def _sq_int(grid, *real_arrays) -> float:
    total = 0.0
    for arr in real_arrays:
        total += float(np.mean(arr * arr))
    return total * grid.area


def _parseval(grid, weight, *coeffs) -> float:
    """area * sum of weight * |f_k|^2 over the full spectrum, from rfft2
    half-spectrum coefficients of either width, `weight` a scalar or a table
    at their width: `grid.weights` counts every column whose conjugate
    partner the half spectrum omits twice."""
    w = grid.at(grid.weights, coeffs[0]) * weight
    return grid.area * sum(float(np.vdot(ch, w * ch).real) for ch in coeffs)


def norms(state: SimState) -> dict:
    """Every norm used by the diagnostics and the a priori bound ledger, a
    dict of nonnegative floats keyed as `NORM_UNITS`.  The planes are not
    masked: masking would move the norms of any state that is not
    band-limited."""
    return packed_norms(state.grid, rfft2(state.planes), state.planes)


def packed_norms(grid: SpectralGrid, sh: np.ndarray, reals: np.ndarray) -> dict:
    """`norms` from half-spectrum coefficients `sh` (6, n, w) and real
    planes `reals` (6, n, n), both ordered as `PLANES`: `sh` is the full
    half spectrum (w = n//2+1) of `norms`, or the stepper's packed state at
    the kept width (w = n//3+1), zero beyond it.

    The stress L^1 norm is the trace integral; L^2-type stress norms are
    Frobenius, i.e. the density c^2/2 + 2a^2 + 2b^2 in (a, b, c) variables.

    Below 2^-511 a value's square is subnormal and keeps only an absolute
    precision of 2^-1074.  So the norms of a state whose values all lie
    below that are taken of the state scaled by a power of two and scaled
    back: every norm is of degree one, and the scaling is exact.
    """
    peak = max(float(reals.max()), -float(reals.min()))
    if 0.0 < peak < 2.0 ** -511:
        scale = 2.0 ** min(-math.frexp(peak)[1], 1000)
        vals = packed_norms(grid, sh * scale, reals * scale)
        return {k: v / scale for k, v in vals.items()}
    area = grid.area
    u1, u2, a, b, c, rho = reals
    u1h, u2h, ah, bh, ch, rhoh = sh
    omh = grid.at(grid.ikx, sh) * u2h - grid.at(grid.iky, sh) * u1h

    ksq = grid.at(grid.k_sq, sh)
    ksq2 = ksq * ksq

    vals = {}
    vals["u_L2"] = np.sqrt(_sq_int(grid, u1, u2))
    vals["grad_u_L2"] = np.sqrt(_parseval(grid, ksq, u1h, u2h))

    vals["sigma_L1"] = float(np.mean(c)) * area
    frob = 0.5 * c * c + 2.0 * a * a + 2.0 * b * b
    vals["sigma_L2"] = np.sqrt(float(np.mean(frob)) * area)
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

    return {k: float(v) for k, v in vals.items()}
