"""Right-hand sides for the coupled system: the explicit terms the
integrating-factor stepper advances (velocity with Leray projection, stress
transport/stretching and the density source, density advection), their sum
with the linear parts as the one rate `rates`, and the closed determinant
law at zero stress diffusivity.

All quadratic products are formed pointwise from dealiased factors and the
product is dealiased again immediately (2/3 rule), so transport integrals
are exact divergences at the discrete level.

The core assembly operates on packed dealiased spectra at the kept width,
(6, n, n//3+1) arrays ordered as `fields.PLANES`: the kept columns of the
`rfft2` half spectrum of `SimState.planes`, whose other columns the 2/3
rule zeroes (`spectral.dealias`).  The time stepper and `rates` share it.
At n=256 one such array holds 2.0 MiB, where the full half spectrum held
3.0 MiB.  An evaluation's derivative stack holds 12 planes, the state
and its x-derivatives (4.0 MiB at n=256): the product pass x-passes those
12 and forms the six y-derivatives after its x-pass, so it y-passes 18.
The stack and the pass's row blocks are allocated per evaluation and
freed on return: nothing is held between calls, so evaluations may overlap
across threads.
"""

from __future__ import annotations

import numpy as np

from .fields import OPERATOR_PLANES, PhysParams, SimState, linear_operators
from .spectral import SpectralGrid, dealias, dealiased_products, irfft2, project


def pack_state(state: SimState) -> np.ndarray:
    """Dealiased coefficients (6, n, n//3+1) at the kept width."""
    return dealias(state.grid, state.planes)


def unpack_state(grid: SpectralGrid, sh: np.ndarray, time: float) -> SimState:
    return SimState(time, grid, irfft2(sh, grid.n))


# Planes of the real derivative stack that hold the state's `PLANES`.
_STATE_PLANES = range(6)


def _products(real: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The six quadratic terms, before dealiasing, from a block of the real
    derivative stack (sh, d1 sh, d2 sh), written into `out` (6, rows, n)."""
    (u1, u2, a, b, c, _,
     d1u1, d1u2, da1, db1, dc1, dr1,
     d2u1, d2u2, da2, db2, dc2, dr2) = real

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

    Returns one (6, n, n//3+1) array (f1, f2, na, nb, nc, nr): the
    unprojected momentum force -u.grad(u) + K div(sigma), the stress
    advection+stretching terms, the c source 4*k*rho, and -u.grad(rho).
    Semigroup-absorbed linear parts (nu*lap(u), kappa*lap - 2k on the
    stress) are excluded.

    With `planes=True` the result is `(nh, reals)`, where `reals` is a
    fresh array of the state's own real planes, bit-identical to
    `irfft2(sh, n)` and fit to be a `SimState.planes`: one evaluation
    serves the monitors, a record and the first RK stage.

    The derivative stack (sh, d1 sh) and the row blocks of the product
    pass (`spectral.dealiased_products`), which forms d2 sh after its
    x-pass, are allocated per call and freed on return; the returned
    arrays are the caller's own.
    """
    ikx, iky = grid.at(grid.ikx, sh), grid.at(grid.iky, sh)
    ah, bh, ch, rh = sh[2], sh[3], sh[4], sh[5]

    stack = np.empty((12,) + sh.shape[1:], complex)
    stack[0:6] = sh
    np.multiply(ikx, sh, out=stack[6:12])
    nh, reals = dealiased_products(grid, stack, 6, _products, 6,
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
    linear parts its integrating factors absorb, D lap - g on the planes of
    each operator (D, g) of `fields.linear_operators`
    (`fields.OPERATOR_PLANES`)."""
    g = state.grid
    sh = pack_state(state)
    nh = explicit_terms(g, params, sh)
    ksq = g.at(g.k_sq, sh)
    for (diffusivity, damping), planes in zip(linear_operators(params), OPERATOR_PLANES):
        nh[planes] -= (diffusivity * ksq + damping) * sh[planes]
    return irfft2(nh, g.n)


def determinant(planes: np.ndarray) -> np.ndarray:
    """det(sigma) = c^2/4 - a^2 - b^2 pointwise, from real state planes
    (6, n, n) ordered as `fields.PLANES`."""
    a, b, c = planes[2:5]
    return 0.25 * c * c - a * a - b * b


def determinant_rhs(state: SimState, params: PhysParams) -> np.ndarray:
    """Rate of d = `determinant` under the closed law valid at kappa = 0,
    -u.grad(d) - 4k d + 2k rho c, as a real (n, n) array, on the dealiased
    state."""
    if params.kappa != 0.0:
        raise ValueError("the determinant law is exact only for kappa = 0")
    g = state.grid
    planes = irfft2(pack_state(state), g.n)
    u1, u2, _, _, c, rho = planes
    dh = dealias(g, determinant(planes))
    d, d1d, d2d = irfft2(np.stack([dh, g.at(g.ikx, dh) * dh, g.at(g.iky, dh) * dh]), g.n)
    adv, src = irfft2(dealias(g, np.stack([u1 * d1d + u2 * d2d, rho * c])), g.n)
    k = params.k
    return -adv - 4.0 * k * d + 2.0 * k * src
