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
rule zeroes (`spectral.dealias`).  The time stepper and `rates` share it,
and so does the Picard map, which evaluates a block of path nodes at once
with its own product algebra (`picard._integrands`).  At n=256 one such
array holds 2.0 MiB, where the full half spectrum held 3.0 MiB.  An
evaluation's derivative stack holds 12 planes per state, the state and
its x-derivatives (4.0 MiB at n=256): the product pass x-passes those 12
and forms the six y-derivatives after its x-pass, so it y-passes 18.
Nothing is held between evaluations, so they may overlap across threads.
"""

from __future__ import annotations

import numpy as np

from .fields import (OPERATOR_PLANES, PhysParams, SimState, add_stress_divergence,
                     linear_operators)
from .spectral import SpectralGrid, dealias, dealiased_products, irfft2, project


def pack_state(state: SimState) -> np.ndarray:
    """Dealiased coefficients (6, n, n//3+1) at the kept width."""
    return dealias(state.grid, state.planes)


def unpack_state(grid: SpectralGrid, sh: np.ndarray, time: float) -> SimState:
    return SimState(time, grid, irfft2(sh, grid.n))


def _products(real: np.ndarray) -> np.ndarray:
    """The six quadratic terms per state, before dealiasing, from a block of
    rows of the real derivative stack of b states, plane-major: the 18 b
    planes (sh, d1 sh, d2 sh), each plane of the b states in turn.  Returns
    a fresh (6 b, rows, n) array, state-major: each state's six terms in
    turn."""
    states = len(real) // 18
    (u1, u2, a, b, c, _,
     d1u1, d1u2, da1, db1, dc1, dr1,
     d2u1, d2u2, da2, db2, dc2, dr2) = real.reshape((18, states) + real.shape[1:])

    lam = 0.5 * (d1u1 - d2u2)
    mu = 0.5 * (d1u2 + d2u1)
    om = d1u2 - d2u1

    # One plane at a time, so a plane's temporaries are gone before the next.
    out = np.empty((states, 6) + real.shape[1:])
    out[:, 0] = -(u1 * d1u1 + u2 * d2u1)
    out[:, 1] = -(u1 * d1u2 + u2 * d2u2)
    out[:, 2] = -(u1 * da1 + u2 * da2) - om * b + c * lam
    out[:, 3] = -(u1 * db1 + u2 * db2) + om * a + c * mu
    out[:, 4] = -(u1 * dc1 + u2 * dc2) + 4.0 * (lam * a + mu * b)
    out[:, 5] = -(u1 * dr1 + u2 * dr2)
    return out.reshape((6 * states,) + real.shape[1:])


def _terms(grid: SpectralGrid, params: PhysParams, sh: np.ndarray, *,
           planes: bool = False, products=_products):
    """Dealiased explicit terms from packed coefficients `sh`, which must be
    dealiased: `pack_state` output, a stage formed with masked factors, or
    a Picard path's nodes.  `sh` is one state (6, n, n//3+1) or a block of
    b states (b, 6, n, n//3+1), and the result has its shape.

    Each state's terms are (f1, f2, na, nb, nc, nr): the unprojected
    momentum force -u.grad(u) + K div(sigma), the stress
    advection+stretching terms, the c source 4*k*rho, and -u.grad(rho).
    Semigroup-absorbed linear parts (nu*lap(u), kappa*lap - 2k on the
    stress) are excluded.

    With `planes=True`, for one state only, the result is `(nh, reals)`,
    where `reals` is a fresh array of the state's own real planes,
    bit-identical to `irfft2(sh, n)` and fit to be a `SimState.planes`: one
    evaluation serves the monitors, a record and the first RK stage.

    The product pass (`spectral.dealiased_products`) reads the derivative
    stack (sh, d1 sh), 12 b planes, plane-major, and forms d2 sh after its
    x-pass.  `products` forms the quadratic terms from a row block of its
    real planes in `_products`' layout; it is `_products` by default, and
    the Picard map passes its own algebra (`picard._products`).
    """
    n, w = sh.shape[-2:]
    states = sh.reshape((-1, 6, n, w))
    b = len(states)
    stack = np.empty((12, b, n, w), complex)
    stack[0:6] = states.swapaxes(0, 1)
    np.multiply(grid.at(grid.ikx, sh), stack[0:6], out=stack[6:12])
    nh, reals = dealiased_products(grid, stack.reshape((12 * b, n, w)), 6 * b, products,
                                   keep=6 if planes else 0)
    nh = nh.reshape(sh.shape)

    add_stress_divergence(grid, sh[..., 2:5, :, :], params.bigK, nh[..., 0:2, :, :])
    nh[..., 4, :, :] += 4.0 * params.k * sh[..., 5, :, :]
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
