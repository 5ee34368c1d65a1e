"""Right-hand sides for the coupled system: strain decomposition, stress
transport/stretching/relaxation, momentum with Leray projection, density
advection, and the closed determinant law at zero stress diffusivity.

All quadratic products are formed pointwise from dealiased factors and the
product is dealiased again immediately (2/3 rule), so transport integrals
are exact divergences at the discrete level.

The core assembly operates on packed half-spectrum (rfft2) arrays of shape
(6, n, n//2+1) ordered as `fields.PLANES`, the spectrum of
`SimState.planes`; the time stepper and the field-level operations below
share it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import PhysParams, SimState
from .spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    _Scratch,
    dealiased_products,
    irfft2,
    rfft2,
    scalar_field,
    vector_field,
)


@dataclass(frozen=True)
class StrainDecomposition:
    """Rate-of-strain components and vorticity, each in 1/sec:
    lam = (d1u1 - d2u2)/2, mu = (d1u2 + d2u1)/2, omega = d1u2 - d2u1."""

    lam: ScalarField
    mu: ScalarField
    omega: ScalarField


def pack_state(state: SimState) -> np.ndarray:
    """Half-spectrum coefficients (6, n, n//2+1), dealiased on entry."""
    return rfft2(state.planes) * state.grid.mask


def unpack_state(grid: SpectralGrid, sh: np.ndarray, time: float) -> SimState:
    return SimState(time, grid, irfft2(sh, grid.n))


# Planes of the real derivative stack that hold the state's `PLANES`.
_STATE_PLANES = [0, 1, 14, 15, 16, 17]

# `_terms`' derivative stack and `dealiased_products`' row blocks, held
# across calls.
_SCRATCH = _Scratch()


def _products(real: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The six quadratic terms, before dealiasing, from a block of the real
    derivative stack (u, d1 sh, d2 sh, a, b, c, ...), written into `out`
    (6, rows, n)."""
    (u1, u2,
     d1u1, d1u2, da1, db1, dc1, dr1,
     d2u1, d2u2, da2, db2, dc2, dr2,
     a, b, c) = real[:17]

    lam = 0.5 * (d1u1 - d2u2)
    mu = 0.5 * (d1u2 + d2u1)
    om = d1u2 - d2u1

    # One plane at a time, so a plane's temporaries are gone before the next.
    out[0] = -(u1 * d1u1 + u2 * d2u1)
    out[1] = -(u1 * d1u2 + u2 * d2u2)
    out[2] = -(u1 * da1 + u2 * da2) - om * b + c * lam
    out[3] = -(u1 * db1 + u2 * db2) + om * a + c * mu
    out[4] = -(u1 * dc1 + u2 * dc2) + 4.0 * (lam * a + mu * b)
    out[5] = -(u1 * dr1 + u2 * dr2)
    return out


def _terms(grid: SpectralGrid, params: PhysParams, sh: np.ndarray, *,
           planes: bool = False):
    """Dealiased explicit terms from packed coefficients `sh`, which must be
    dealiased: `pack_state` output, or a stage formed with masked factors.

    Returns one (6, n, n//2+1) array (f1, f2, na, nb, nc, nr): the
    unprojected momentum force -u.grad(u) + K div(sigma), the stress
    advection+stretching terms, the c source 4*k*rho, and -u.grad(rho).
    Semigroup-absorbed linear parts (nu*lap(u), kappa*lap - 2k on the
    stress) are excluded.

    With `planes=True` rho joins the inverse transform and the result is
    `(nh, reals)`, where `reals` is a fresh array of the state's own real
    planes, bit-identical to `irfft2(sh, n)` and fit to be a
    `SimState.planes`: one evaluation serves the monitors, a record and the
    first RK stage.

    The derivative stack (u, d1 sh, d2 sh, a, b, c[, rho]) holds only the
    kept columns of `sh`, since the rest are zero, and the product pass
    (`spectral.dealiased_products`) visits real space in row blocks.  Both
    are module scratch (`_SCRATCH`), so calls must not overlap across
    threads; the returned arrays are the caller's own.
    """
    ikx, iky = grid.ikx, grid.iky
    ah, bh, ch, rh = sh[2], sh[3], sh[4], sh[5]

    kc = grid.kept_columns
    depth = 18 if planes else 17
    kept = sh[..., :kc]
    stack = _SCRATCH.take("stack", (18, grid.n, kc))
    stack[0:2] = kept[0:2]
    np.multiply(ikx[:, :kc], kept, out=stack[2:8])
    np.multiply(iky[:, :kc], kept, out=stack[8:14])
    stack[14:depth] = kept[2:depth - 12]
    nh, reals = dealiased_products(grid, stack, depth, _products, 6, _SCRATCH,
                                   keep=_STATE_PLANES if planes else None)

    bigK = params.bigK
    nh[0] += bigK * (ikx * (0.5 * ch + ah) + iky * bh)
    nh[1] += bigK * (ikx * bh + iky * (0.5 * ch - ah))
    nh[4] += 4.0 * params.k * rh
    return (nh, reals) if planes else nh


def _project_velocity(grid: SpectralGrid, nh: np.ndarray) -> None:
    """Leray-project the velocity planes nh[0:2] of a packed array in place."""
    kd = (grid.kx * nh[0] + grid.ky * nh[1]) * grid.inv_k_sq_d
    nh[0] -= grid.kx * kd
    nh[1] -= grid.ky * kd


def explicit_terms(grid: SpectralGrid, params: PhysParams, sh: np.ndarray) -> np.ndarray:
    """Projected explicit right-hand sides for the integrating-factor stages:
    `_terms` with its force planes Leray-projected in place."""
    nh = _terms(grid, params, sh)
    _project_velocity(grid, nh)
    return nh


def strain_decompose(u: VectorField) -> StrainDecomposition:
    g = u.grid
    uh = u.coeffs
    d1u1, d2u1, d1u2, d2u2 = irfft2(
        np.stack([g.ikx * uh[0], g.iky * uh[0], g.ikx * uh[1], g.iky * uh[1]]), g.n
    )
    return StrainDecomposition(
        lam=scalar_field(g, 0.5 * (d1u1 - d2u2)),
        mu=scalar_field(g, 0.5 * (d1u2 + d2u1)),
        omega=scalar_field(g, d1u2 - d2u1),
    )


def stress_rhs(state: SimState, params: PhysParams):
    """Full (a, b, c) rates: advection, stretching, relaxation -2k, diffusion
    kappa*lap, and the density source 4*k*rho in the trace equation."""
    g = state.grid
    sh = pack_state(state)
    _, _, na, nb, nc, _ = _terms(g, params, sh)
    lam_lin = -params.kappa * g.k_sq - 2.0 * params.k
    da = na + lam_lin * sh[2]
    db = nb + lam_lin * sh[3]
    dc = nc + lam_lin * sh[4]
    vals = irfft2(np.stack([da, db, dc]), g.n)
    return (
        scalar_field(g, vals[0]),
        scalar_field(g, vals[1]),
        scalar_field(g, vals[2]),
    )


def momentum_rhs(state: SimState, params: PhysParams) -> VectorField:
    """Divergence-free velocity rate: P(-u.grad(u) + K div(sigma)) + nu*lap(u)."""
    g = state.grid
    sh = pack_state(state)
    nh = explicit_terms(g, params, sh)
    visc = -params.nu * g.k_sq
    du = np.stack([nh[0] + visc * sh[0], nh[1] + visc * sh[1]])
    return vector_field(g, irfft2(du, g.n))


def rho_rhs(state: SimState) -> ScalarField:
    """Dealiased advection rate -u.grad(rho); its integral vanishes."""
    g = state.grid
    sh = pack_state(state)
    u1, u2, dr1, dr2 = irfft2(
        np.stack([sh[0], sh[1], g.ikx * sh[5], g.iky * sh[5]]), g.n
    )
    nr = rfft2(-(u1 * dr1 + u2 * dr2)) * g.mask
    return scalar_field(g, irfft2(nr, g.n))


def recover_pressure(state: SimState, params: PhysParams) -> ScalarField:
    """Zero-mean pressure from the Poisson equation lap(p) = div(force) with
    force = -u.grad(u) + K div(sigma).  Diagnostic only; the stepper never
    uses pressure."""
    g = state.grid
    sh = pack_state(state)
    f1, f2, *_ = _terms(g, params, sh)
    div_f = g.ikx * f1 + g.iky * f2
    ph = -g.inv_k_sq_d * div_f
    return scalar_field(g, irfft2(ph, g.n))


def unprojected_force(state: SimState, params: PhysParams) -> VectorField:
    """-u.grad(u) + K div(sigma) + nu*lap(u) before Leray projection."""
    g = state.grid
    sh = pack_state(state)
    f1, f2, *_ = _terms(g, params, sh)
    visc = -params.nu * g.k_sq
    return vector_field(g, irfft2(np.stack([f1 + visc * sh[0], f2 + visc * sh[1]]), g.n))


def determinant_rhs(state: SimState, params: PhysParams) -> ScalarField:
    """Rate of det(sigma) = c^2/4 - a^2 - b^2 under the closed law valid at
    kappa = 0: -u.grad(d) - 4k d + 2k rho c."""
    if params.kappa != 0.0:
        raise ValueError("the determinant law is exact only for kappa = 0")
    g = state.grid
    u1, u2, a, b, c, rho = irfft2(pack_state(state), g.n)
    dh = rfft2(0.25 * c * c - a * a - b * b) * g.mask
    d, d1d, d2d = irfft2(np.stack([dh, g.ikx * dh, g.iky * dh]), g.n)
    adv, src = irfft2(rfft2(np.stack([u1 * d1d + u2 * d2d, rho * c])) * g.mask, g.n)
    k = params.k
    return scalar_field(g, -adv - 4.0 * k * d + 2.0 * k * src)
