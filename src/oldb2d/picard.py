"""Mild-formulation fixed point: Duhamel integral operators with exact
per-mode heat kernels and trapezoidal quadrature in time, the successive
substitution loop, and contraction diagnostics.

A path is one dealiased spectrum at the kept width (`spectral.dealias`),
an array (m, 6, n, n//3+1) sampled on uniform nodes over [0, t0], its
planes ordered as `fields.PLANES` like a state's.  The operators take and
return spectra at that width, and read the grid tables and heat factors
at it, in plane groups: velocity (m, 2, ...), stress (m, 3, ...) in
(a, b, c) order, density (m, ...).  The map sends (u, sigma, rho) to

    u_new     = heat_u(t) u0         + Q1(u, u) + L1(sigma)
    sigma_new = heat_sigma(t) sigma0 + Q2(u, sigma) + L2(rho)
    rho_new   = transport of rho0 by the frozen velocity u

where each heat factor is that of the plane's operator in
`fields.linear_operators` (nu lap on u, kappa lap - 2k on the stress), so
a fixed point solves the coupled system in integral form.  The stress
stretching term inside Q2 is assembled in matrix components, independently
of the strain-based assembly in `dynamics`; the force K div sigma is the
stepper's, `fields.add_stress_divergence`.

One application of the map works through the path in blocks of nodes, as
many as `spectral._BLOCK_BYTES` holds of one node's product pass: 10
kept-width complex planes and 20 real planes (18 nodes at n=16, 4 at n=32,
1 from n=64 up).  A block fills one kept-width stack, plane-major, with
the 10 planes its nodes' integrands read before their y-derivatives
(`_node_stack`: u, the stress in matrix components, and their x
derivatives) and forms every product of Q1 and Q2 in one
`spectral.dealiased_products` pass, the stepper's product pass, which
forms the y-derivatives of the first five planes per node after its
x-pass.  Integrands under the same kernel (Q1 + L1, Q2 + L2) are summed
before one quadrature, which adds into the new path's planes for that
kernel and carries its last node over to the next block.  The transport,
`op_n`, forms the real speeds of the whole path itself.  No integrand,
accumulation or product stack spans the whole path.  The public operators
`op_q1`, `op_l1`, `op_q2`, `op_l2` and `op_n` remain the full-path
definitions, with one `irfft2` and one `dealias` over the whole path and
the y-derivatives formed spectrally; the map is their composition.
Nothing is held between calls, so maps may overlap across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .fields import (OPERATOR_PLANES, PhysParams, SimState, add_stress_divergence,
                     linear_operators)
from .spectral import SpectralGrid, dealias, dealiased_products, decay, irfft2, project

_SUBSTEP_CFL = 0.5       # frozen-velocity transport uses the stepper's default
_MAX_SUBSTEPS = 100_000  # across the whole path; beyond this the velocity is absurd


@dataclass(frozen=True)
class PicardConfig:
    """Horizon, quadrature nodes for the Duhamel integrals, and the stopping
    rule: relative successive-difference threshold in the composite norm."""

    t0: float
    n_time_nodes: int = 65
    max_iter: int = 30
    tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.t0 < math.inf:
            raise ValueError("t0 must be positive and finite")
        if self.n_time_nodes < 4:
            raise ValueError("n_time_nodes must be at least 4")
        if not np.all(np.diff(self.times()) > 0.0):
            # A subnormal t0 rounds node spacings to zero, and a zero span
            # has no sub-step length in `op_n`.
            raise ValueError("t0 is too small to separate the time nodes")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t0, self.n_time_nodes)


@dataclass
class PicardHistory:
    """Per-iterate composite-norm proxies and successive differences."""

    u_norms: list = field(default_factory=list)
    sigma_norms: list = field(default_factory=list)
    rho_norms: list = field(default_factory=list)
    diffs: list = field(default_factory=list)
    ratios: list = field(default_factory=list)


class PicardDivergenceError(RuntimeError):
    """Iteration failed to contract; t0 is too large for this data."""

    def __init__(self, message: str, history: PicardHistory):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class MildTrajectory:
    """The converged path, at `times` measured from the initial state."""

    grid: SpectralGrid
    times: np.ndarray
    path: np.ndarray   # (m, 6, n, n//3+1) kept columns, `PLANES` order

    def state(self, j: int) -> SimState:
        return SimState(float(self.times[j]), self.grid, irfft2(self.path[j], self.grid.n))


def _accumulate(g_path: np.ndarray, decay: np.ndarray, ds: float,
                carry: tuple | None = None) -> np.ndarray:
    """I(t_j) = int_0^{t_j} E(t_j - s) G(s) ds, trapezoid in s with the exact
    per-mode kernel E applied through the semigroup recursion.  Without
    `carry`, g_path[0] is at t = 0, where I vanishes; a block of nodes that
    starts later passes (I, G) at the node before its first."""
    out = np.empty_like(g_path)
    first = 0
    if carry is None:
        out[0] = 0.0
        carry, first = (out[0], g_path[0]), 1
    prev_out, prev_g = carry
    for j in range(first, g_path.shape[0]):
        out[j] = decay * (prev_out + 0.5 * ds * prev_g) + 0.5 * ds * g_path[j]
        prev_out, prev_g = out[j], g_path[j]
    return out


def _step(cfg: PicardConfig) -> float:
    times = cfg.times()
    return times[1] - times[0]


def _heat(grid: SpectralGrid, params: PhysParams, op: int, t) -> np.ndarray:
    """The heat factor of linear operator `op` over a time `t`, at the kept
    width."""
    diffusivity, damping = linear_operators(params)[op]
    return decay(grid, diffusivity, damping, t, columns=grid.kept_columns)


def _gradient(grid: SpectralGrid) -> np.ndarray:
    """(ikx, iky) stacked at the kept width, shape (2, n, n//3+1)."""
    kc = grid.kept_columns
    return np.stack([grid.ikx[:, :kc], grid.iky[:, :kc]])


def _node_stack(u_path: np.ndarray, abc_path: np.ndarray, grid: SpectralGrid,
                out: np.ndarray) -> np.ndarray:
    """Fill `out`, (10, m, n, n//3+1) plane-major, with the kept-width
    planes a node's integrands read before their y-derivatives: u1, u2; the
    stress in matrix components s11, s12, s22; the x derivatives of those
    five.  Returns `out`."""
    out[0:2] = np.moveaxis(u_path, 1, 0)
    out[2] = 0.5 * abc_path[:, 2] + abc_path[:, 0]
    out[3] = abc_path[:, 1]
    out[4] = 0.5 * abc_path[:, 2] - abc_path[:, 0]
    np.multiply(grid.at(grid.ikx, out), out[0:5], out=out[5:10])
    return out


def _products(real: np.ndarray) -> np.ndarray:
    """The five integrand planes per node, before dealiasing, from a block
    of rows of real planes, plane-major: the 10 of `_node_stack`, then the
    y derivatives of its first five.  Returns a fresh array of five planes
    per node, node-major: -(u.grad v), then Q2's
    (grad u) sigma + sigma (grad u)^T - u.grad(sigma), assembled in matrix
    components and written in (a, b, c) order (it reads grad v as grad u)."""
    nodes = len(real) // 15
    (u1, u2, s11, s12, s22,
     g11, g21, d1s11, d1s12, d1s22,
     g12, g22, d2s11, d2s12, d2s22) = real.reshape((15, nodes) + real.shape[1:])
    out = np.empty((5 * nodes,) + real.shape[1:])
    f = np.moveaxis(out.reshape((nodes, 5) + out.shape[1:]), 1, 0)

    f[0] = -(u1 * g11 + u2 * g12)
    f[1] = -(u1 * g21 + u2 * g22)
    i11 = 2.0 * (g11 * s11 + g12 * s12) - (u1 * d1s11 + u2 * d2s11)
    i12 = g11 * s12 + g12 * s22 + s11 * g21 + s12 * g22 - (u1 * d1s12 + u2 * d2s12)
    i22 = 2.0 * (g21 * s12 + g22 * s22) - (u1 * d1s22 + u2 * d2s22)
    f[2] = 0.5 * (i11 - i22)
    f[3] = i12
    f[4] = i11 + i22
    return out


def _path_integrands(u_path: np.ndarray, v_path: np.ndarray, abc_path: np.ndarray,
                     grid: SpectralGrid) -> np.ndarray:
    """The five dealiased integrand planes of `_products` at every node,
    (m, 5, n, n//3+1), from one `irfft2` of the whole path's stack, its y
    derivatives formed spectrally, and one `dealias` of its products."""
    m, n, kc = u_path.shape[0], grid.n, grid.kept_columns
    stack = np.empty((15, m, n, kc), complex)
    _node_stack(v_path, abc_path, grid, stack[:10])
    np.multiply(grid.at(grid.iky, stack), stack[0:5], out=stack[10:15])
    stack[0:2] = np.moveaxis(u_path, 1, 0)  # u carries v's gradient
    real = irfft2(stack, n, overwrite_x=True).reshape(15 * m, n, n)
    return dealias(grid, _products(real)).reshape(m, 5, n, kc)


def op_q1(u_path: np.ndarray, v_path: np.ndarray, grid: SpectralGrid,
          params: PhysParams, cfg: PicardConfig) -> np.ndarray:
    """-int_0^t heat(nu (t-s)) P(u(s).grad v(s)) ds at every node."""
    ds = _step(cfg)
    no_stress = np.zeros((u_path.shape[0], 3) + u_path.shape[2:], complex)
    gh = _path_integrands(u_path, v_path, no_stress, grid)[:, 0:2]
    project(grid, gh)
    return _accumulate(gh, _heat(grid, params, 0, ds), ds)


def op_l1(abc_path: np.ndarray, grid: SpectralGrid, params: PhysParams,
          cfg: PicardConfig) -> np.ndarray:
    """K int_0^t heat(nu (t-s)) P(div sigma(s)) ds."""
    ds = _step(cfg)
    gh = np.zeros((abc_path.shape[0], 2) + abc_path.shape[2:], complex)
    add_stress_divergence(grid, abc_path, 1.0, gh)
    project(grid, gh)
    return _accumulate(params.bigK * gh, _heat(grid, params, 0, ds), ds)


def q2_integrand(u_path: np.ndarray, abc_path: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """(grad u) sigma + sigma (grad u)^T - u.grad(sigma) in (a, b, c) order,
    assembled from matrix components; dealiased half-spectrum output."""
    return _path_integrands(u_path, u_path, abc_path, grid)[:, 2:5]


def op_q2(u_path: np.ndarray, abc_path: np.ndarray, grid: SpectralGrid,
          params: PhysParams, cfg: PicardConfig) -> np.ndarray:
    """int_0^t heat((kappa lap - 2k)(t-s)) [stretching - advection](s) ds."""
    ds = _step(cfg)
    return _accumulate(q2_integrand(u_path, abc_path, grid), _heat(grid, params, 1, ds), ds)


def op_l2(rho_path: np.ndarray, grid: SpectralGrid, params: PhysParams,
          cfg: PicardConfig) -> np.ndarray:
    """2k int_0^t heat((kappa lap - 2k)(t-s)) rho(s) I ds; in (a, b, c)
    coordinates the identity matrix contributes only to c, with weight 2."""
    ds = _step(cfg)
    out = np.zeros((rho_path.shape[0], 3) + rho_path.shape[1:], dtype=complex)
    out[:, 2] = _accumulate(4.0 * params.k * rho_path, _heat(grid, params, 1, ds), ds)
    return out


def op_n(u_path: np.ndarray, rho0: np.ndarray, grid: SpectralGrid,
         cfg: PicardConfig) -> np.ndarray:
    """Transport rho0 by the frozen, time-interpolated velocity; sampled at
    the quadrature nodes.  Sub-steps between nodes obey the advective CFL."""
    times = cfg.times()
    m = len(times)
    grad = _gradient(grid)
    out = np.empty((m,) + rho0.shape, dtype=complex)
    out[0] = rho0 * grid.at(grid.mask, rho0)
    u_r = irfft2(u_path, grid.n)
    h = grid.spacing

    def rhs(rho_h, u):
        """u.grad(rho), dealiased; the stages subtract it."""
        dr = irfft2(grad * rho_h, grid.n)
        return dealias(grid, u[0] * dr[0] + u[1] * dr[1])

    # Budget the whole path up front so an exploding velocity fails fast
    # instead of grinding through millions of sub-steps.  max |u| per node
    # is max(max u, -min u), as `integrate._step_dt` takes it.
    umaxes = np.maximum(np.max(u_r, axis=(1, 2, 3)), -np.min(u_r, axis=(1, 2, 3)))
    spans = np.diff(times)
    counts = np.maximum(
        1.0,
        np.ceil(spans / (_SUBSTEP_CFL * h / np.maximum(
            np.maximum(umaxes[:-1], umaxes[1:]), 1e-12))),
    )
    # Compared as floats: past 2**63 a cast to int wraps, and nan fails too.
    if not np.sum(counts) <= _MAX_SUBSTEPS:
        raise ValueError("transport sub-stepping CFL violation: velocity too large")

    for j in range(m - 1):
        span = spans[j]
        n_sub = int(counts[j])
        dt = span / n_sub
        rho_h = out[j].copy()
        u_start, u_jump = u_r[j], u_r[j + 1] - u_r[j]
        for s in range(n_sub):
            th0 = (s * dt) / span
            th1 = ((s + 1) * dt) / span
            thh = ((s + 0.5) * dt) / span
            r1 = rho_h - dt * rhs(rho_h, u_start + th0 * u_jump)
            r2 = 0.75 * rho_h + 0.25 * (r1 - dt * rhs(r1, u_start + th1 * u_jump))
            rho_h = (rho_h + 2.0 * (r2 - dt * rhs(r2, u_start + thh * u_jump))) / 3.0
        out[j + 1] = rho_h
    return out


# --- composite norm proxies -------------------------------------------------

def _sobolev_sq(grid: SpectralGrid, coeffs: np.ndarray, order: int,
                weights: np.ndarray | None = None) -> np.ndarray:
    """Bessel-type Sobolev proxy (1 + |k|^2)^order per node, a Parseval sum
    over the half spectrum, of either width, with the Hermitian weights;
    `weights` mixes components (Frobenius weights for the stress)."""
    bess = grid.at(grid.weights, coeffs) * (1.0 + grid.at(grid.k_sq, coeffs)) ** order
    mag = np.abs(coeffs) ** 2
    if weights is not None:
        mag = np.tensordot(weights, mag, axes=([0], [1]))
    else:
        mag = mag.sum(axis=1) if mag.ndim == 4 else mag
    return grid.area * np.sum(bess * mag, axis=(-2, -1))


_FROBENIUS_ABC = np.array([2.0, 2.0, 0.5])  # weights on (a, b, c) coefficient power


def _u_norm(grid, u_path, times) -> float:
    sup = float(np.sqrt(np.max(_sobolev_sq(grid, u_path, 2))))
    integ = float(np.sqrt(np.trapezoid(_sobolev_sq(grid, u_path, 3), times)))
    return sup + integ


def _sigma_norm(grid, abc_path, times) -> float:
    sup = float(np.sqrt(np.max(_sobolev_sq(grid, abc_path, 1, _FROBENIUS_ABC))))
    integ = float(np.sqrt(np.trapezoid(_sobolev_sq(grid, abc_path, 2, _FROBENIUS_ABC), times)))
    return sup + integ


def _rho_norm(grid, rho_path, times) -> float:
    l1 = np.mean(np.abs(irfft2(rho_path, grid.n)), axis=(-2, -1)) * grid.area
    w12 = np.sqrt(_sobolev_sq(grid, rho_path, 1))
    return float(np.max(l1 + w12))


def _norms(grid, path, times) -> tuple:
    """The parts of the composite norm of a path: |u|_X, |sigma|_Y, |rho|_Z."""
    return (_u_norm(grid, path[:, 0:2], times), _sigma_norm(grid, path[:, 2:5], times),
            _rho_norm(grid, path[:, 5], times))


def composite_norm(grid, path, times) -> float:
    u_part, sigma_part, rho_part = _norms(grid, path, times)
    return u_part + sigma_part + rho_part


# --- the iteration ----------------------------------------------------------

def _initial_coeffs(state: SimState) -> np.ndarray:
    """Dealiased coefficients (6, n, n//3+1) of the data at the kept width,
    u0 projected; one `rfft2` over the state's planes."""
    coeffs = dealias(state.grid, state.planes)
    project(state.grid, coeffs)
    return coeffs


def _heat_flow(sh0, grid, params, cfg, path, ops):
    """Write heat(t) sh0 into the planes of the linear operators `ops` of
    `path` at every node t, one factor per operator; returns `path`."""
    times = cfg.times()[:, None, None]
    for op in ops:
        planes = OPERATOR_PLANES[op]
        np.multiply(_heat(grid, params, op, times)[:, None], sh0[planes], out=path[:, planes])
    return path


def semigroup_paths(sh0, grid, params, cfg):
    """The zeroth iterate: pure heat flow of the initial data `sh0`.  Its
    density plane is rho0 at every node exactly: rho's operator is (0, 0),
    whose factor is exp(0) = 1."""
    path = np.empty((cfg.n_time_nodes,) + sh0.shape, dtype=complex)
    return _heat_flow(sh0, grid, params, cfg, path, range(len(OPERATOR_PLANES)))


def _node_block(grid: SpectralGrid) -> int:
    """Nodes per block of `apply_map`: as many as `spectral._BLOCK_BYTES`
    holds of one node's product pass, its 10 kept-width complex stack
    planes and 20 real planes (15 transformed, 5 products); 18 at n=16, 4
    at n=32, 1 from n=64 up."""
    n = grid.n
    return max(1, spectral._BLOCK_BYTES // (10 * n * grid.kept_columns * 16 + 20 * n * n * 8))


def _integrands(block_path, grid, params):
    """The integrands under the two heat kernels, Q1 + L1 and Q2 + L2
    before quadrature, at a block of nodes, from one product pass over the
    block's stack."""
    b = len(block_path)
    u, abc = block_path[:, 0:2], block_path[:, 2:5]
    stack = np.empty((b * 10, grid.n, grid.kept_columns), complex)
    _node_stack(u, abc, grid, stack.reshape((10, b) + stack.shape[1:]))
    prods, _ = dealiased_products(grid, stack, 5 * b, _products)
    prods = prods.reshape((b, 5) + stack.shape[1:])
    fh = prods[:, 0:2]
    add_stress_divergence(grid, abc, params.bigK, fh)
    project(grid, fh)
    gh = prods[:, 2:5]
    gh[:, 2] += 4.0 * params.k * block_path[:, 5]
    return fh, gh


def _add_integral(planes, integrand, decay, ds, carry):
    """Add the quadrature of a block's `integrand` into `planes`, the
    block's planes of the new path; returns the carry of the next block."""
    acc = _accumulate(integrand, decay, ds, carry)
    planes += acc
    return acc[-1].copy(), integrand[-1].copy()


def apply_map(path, sh0, grid, params, cfg):
    """One application of the fixed-point map to a path.  Equal, to
    rounding, to the path with planes

        sem_u + op_q1(u, u) + op_l1(sigma),
        sem_sigma + op_q2(u, sigma) + op_l2(rho),
        op_n(u, rho0),

    with one product pass per block of nodes shared by all three and one
    quadrature per kernel; the density plane gets no heat flow, as `op_n`
    writes it.  The nodes are visited in blocks of `_node_block`: a block's
    integrands are summed into the new path, carrying the quadrature on
    from the block before."""
    ds = _step(cfg)
    m = path.shape[0]
    block = min(m, _node_block(grid))
    heats = [_heat(grid, params, op, ds) for op in (0, 1)]
    new = np.empty_like(path)
    _heat_flow(sh0, grid, params, cfg, new, (0, 1))
    carry = (None, None)
    for start in range(0, m, block):
        nodes = slice(start, min(start + block, m))
        # A block's integrands live only inside this list, so they are
        # freed before the next block forms its own.
        carry = [_add_integral(new[nodes, OPERATOR_PLANES[op]], g, heats[op], ds, carry[op])
                 for op, g in enumerate(
                     _integrands(path[nodes], grid, params))]
    new[:, 5] = op_n(path[:, 0:2], sh0[5], grid, cfg)
    return new


@np.errstate(over="ignore", invalid="ignore")
def picard_iterate(initial: SimState, params: PhysParams, cfg: PicardConfig):
    """Iterate the mild-formulation map from the heat-flow zeroth iterate of
    the state `initial` until the composite-norm successive difference is
    below tol (relative).

    Returns (MildTrajectory, PicardHistory).  Non-convergence within
    max_iter, or outright growth, raises PicardDivergenceError: the horizon
    t0 is too large for the data.  Overflow and nan are not warned of, as
    in `integrate.run`: the divergence test reports them.
    """
    grid = initial.grid
    times = cfg.times()
    sh0 = _initial_coeffs(initial)
    path = semigroup_paths(sh0, grid, params, cfg)

    hist = PicardHistory()

    def log_norms(p):
        for log, value in zip((hist.u_norms, hist.sigma_norms, hist.rho_norms),
                              _norms(grid, p, times)):
            log.append(value)

    log_norms(path)

    for _ in range(cfg.max_iter):
        try:
            new = apply_map(path, sh0, grid, params, cfg)
        except ValueError as exc:
            # Transport sub-stepping ran out of CFL budget: the iterate has
            # already blown up.
            raise PicardDivergenceError(
                f"iteration diverged ({exc}); reduce t0", hist
            ) from exc
        # The outgoing path is dropped below, so it takes the difference.
        diff = composite_norm(grid, np.subtract(new, path, out=path), times)
        log_norms(new)
        hist.diffs.append(diff)
        if len(hist.diffs) >= 2 and hist.diffs[-2] > 0.0:
            hist.ratios.append(diff / hist.diffs[-2])

        path = new

        scale = hist.u_norms[-1] + hist.sigma_norms[-1] + hist.rho_norms[-1]
        if not np.isfinite(diff) or diff > 1e10 * max(hist.diffs[0], 1e-300):
            raise PicardDivergenceError(
                f"iteration diverged (last ratio "
                f"{hist.ratios[-1] if hist.ratios else float('inf'):.3g}); "
                "reduce t0", hist,
            )
        if diff <= cfg.tol * max(scale, 1e-300):
            return MildTrajectory(grid, times, path), hist

    # A ratio needs two differences; with one there is none to print.
    last = (f"last contraction ratio {hist.ratios[-1]:.3g}" if hist.ratios
            else "one difference, so no contraction ratio")
    raise PicardDivergenceError(
        f"no convergence in {cfg.max_iter} iterations ({last}); reduce t0", hist,
    )


def stepper_gaps(mild: SimState, stepped: SimState) -> dict:
    """Relative L2 gap of each field of the mild solution from the stepped
    one at the same time: u (both planes), a, b, c and rho."""
    gaps = {}
    for name, p in (("u", slice(0, 2)), ("a", 2), ("b", 3), ("c", 4), ("rho", 5)):
        fa, fb = mild.planes[p], stepped.planes[p]
        num = np.sqrt(np.mean((fa - fb) ** 2))
        gaps[name] = num / max(np.sqrt(np.mean(fb ** 2)), 1e-300)
    return gaps


def contraction_estimate(history: PicardHistory) -> float:
    """Geometric-mean ratio of successive differences; below one for a
    contracting iteration, exactly zero once a difference hits zero."""
    diffs = history.diffs
    if any(d == 0.0 for d in diffs):
        return 0.0
    if len(diffs) < 3:
        raise ValueError("need at least three iterations to estimate contraction")
    ratios = np.array(diffs[1:]) / np.array(diffs[:-1])
    return float(np.exp(np.mean(np.log(ratios))))
