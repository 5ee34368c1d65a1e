"""Right-hand sides for the coupled system: the explicit terms the
integrating-factor stepper advances (velocity with Leray projection, stress
transport/stretching and the density source, density advection), their sum
with the linear parts as the one rate `rates`, and the closed determinant
law at zero stress diffusivity.

All quadratic products are formed pointwise from dealiased factors and the
product is dealiased again immediately (2/3 rule), so transport integrals
are exact divergences at the discrete level.

The core assembly operates on packed half-spectrum (rfft2) arrays of shape
(6, n, n//2+1) ordered as `fields.PLANES`, the spectrum of
`SimState.planes`; the time stepper and `rates` share it.
"""

from __future__ import annotations

import numpy as np

from .fields import PhysParams, SimState
from .spectral import SpectralGrid, _Scratch, dealiased_products, irfft2, project, rfft2


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


def explicit_terms(grid: SpectralGrid, params: PhysParams, sh: np.ndarray) -> np.ndarray:
    """Projected explicit right-hand sides for the integrating-factor stages:
    `_terms` with its force planes Leray-projected in place."""
    nh = _terms(grid, params, sh)
    project(grid, nh)
    return nh


def rates(state: SimState, params: PhysParams) -> np.ndarray:
    """The time derivative of `state.planes`, one real (6, n, n) array
    ordered as `fields.PLANES`: the stepper's `explicit_terms` plus the
    linear parts its integrating factors absorb, nu lap(u) on the velocity
    and kappa lap(sigma) - 2k sigma on the stress."""
    g = state.grid
    sh = pack_state(state)
    nh = explicit_terms(g, params, sh)
    nh[0:2] -= params.nu * g.k_sq * sh[0:2]
    nh[2:5] -= (params.kappa * g.k_sq + 2.0 * params.k) * sh[2:5]
    return irfft2(nh, g.n)


def determinant_rhs(state: SimState, params: PhysParams) -> np.ndarray:
    """Rate of det(sigma) = c^2/4 - a^2 - b^2 under the closed law valid at
    kappa = 0, -u.grad(d) - 4k d + 2k rho c, as a real (n, n) array."""
    if params.kappa != 0.0:
        raise ValueError("the determinant law is exact only for kappa = 0")
    g = state.grid
    u1, u2, a, b, c, rho = irfft2(pack_state(state), g.n)
    dh = rfft2(0.25 * c * c - a * a - b * b) * g.mask
    d, d1d, d2d = irfft2(np.stack([dh, g.ikx * dh, g.iky * dh]), g.n)
    adv, src = irfft2(rfft2(np.stack([u1 * d1d + u2 * d2d, rho * c])) * g.mask, g.n)
    k = params.k
    return -adv - 4.0 * k * d + 2.0 * k * src
