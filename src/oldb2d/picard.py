"""Mild-formulation fixed point: Duhamel integral operators with exact
per-mode heat kernels and trapezoidal quadrature in time, the successive
substitution loop, and contraction diagnostics.

A path is one dealiased spectrum at the kept width (`spectral.dealias`),
an array (m, 6, n, n//3+1) sampled on uniform nodes over [0, t0], its
planes ordered as `fields.PLANES` like a state's.  The operators take and
return spectra at that width, and read the grid tables and heat factors
at it, in plane groups: velocity (m, 2, ...), stress (m, 3, ...) in
(a, b, c) order, density (m, 1, ...).  The map sends (u, sigma, rho) to

    u_new     = heat_u(t) u0         + Q1(u, u) + L1(sigma)
    sigma_new = heat_sigma(t) sigma0 + Q2(u, sigma) + L2(rho)
    rho_new   = rho0                 + N(u, rho)

where each heat factor is that of the plane's operator in
`fields.linear_operators` (nu lap on u, kappa lap - 2k on the stress, and
1 on rho, whose operator is (0, 0)), and N is the Duhamel integral of
-(u.grad rho) under that unit kernel, so a fixed point solves the coupled
system in integral form: one formula, path_new = heat(t) sh0 plus the
trapezoid integral of E(t - s) times the integrand of `path(s)`, for
every plane.  The integrand at a node is the stepper's projected explicit
term, `dynamics.explicit_terms`.  The map is posed on divergence-free
velocity, as every iterate is: sh0 and the force are projected and the
heat factors act per mode.  On that space Q2's matrix form,
(grad u) sigma + sigma (grad u)^T - u.grad(sigma), equals the stepper's
strain form; off it they differ by sigma (div u).  So the two solvers
differ only in their time quadrature, which `picard --compare`
cross-checks; `check` holds a matrix-form Q2 of its own as the reference.

One application of the map works through the path in blocks of nodes, as
many as `spectral._BLOCK_BYTES` holds of one node's product pass: 12
kept-width complex planes and 24 real planes (15 nodes at n=16, 3 at
n=32, 1 from n=64 up).  A block's integrands are one `explicit_terms`
evaluation over its nodes: one product pass, which x-passes the block
through a plane-major view with no copy, and one integrand array in
`PLANES` order.  On uniform
nodes heat(t_j) = E heat(t_{j-1}), with E the heat factor over one node
step, so the heat flow of the data and the trapezoid Duhamel sum are one
recursion, new_j = E (new_{j-1} + h G_{j-1}) + h G_j from new_0 = sh0,
with h half the node step and G_j node j's integrand; it runs through
each block's nodes and carries one array, new_j + h G_j, to the next
block.  No integrand or product stack spans the whole path.  Nothing is
held between calls, so maps may overlap across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .dynamics import explicit_terms
from .fields import PLANE_OPERATOR, PhysParams, SimState, linear_operators
from .spectral import SpectralGrid, dealias, decay, irfft2, project


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
            # A subnormal t0 rounds node spacings to zero, so the nodes are
            # not the uniform grid of step `_step` that the quadrature sums.
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
    """Iteration failed to converge: it grew, so t0 is too large for this
    data, or it ran out of iterations."""

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


def _step(cfg: PicardConfig) -> float:
    times = cfg.times()
    return times[1] - times[0]


def _heat(grid: SpectralGrid, params: PhysParams, t) -> np.ndarray:
    """The heat factor of each plane's linear operator over a time `t`, at
    the kept width: (..., 6, n, n//3+1) in `PLANES` order, one `decay` per
    operator of `fields.linear_operators`."""
    factors = [decay(grid, diffusivity, damping, t, columns=grid.kept_columns)
               for diffusivity, damping in linear_operators(params)]
    return np.stack([factors[op] for op in PLANE_OPERATOR], axis=-3)


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


def semigroup_paths(sh0, grid, params, cfg):
    """The zeroth iterate: pure heat flow of the initial data `sh0`.  Its
    density plane is rho0 at every node exactly: rho's operator is (0, 0),
    whose factor is exp(0) = 1."""
    return _heat(grid, params, cfg.times()[:, None, None]) * sh0


def _node_block(grid: SpectralGrid) -> int:
    """Nodes per block of `apply_map`: as many as `spectral._BLOCK_BYTES`
    holds of one node's `dynamics.explicit_terms` evaluation, its 12
    kept-width complex planes (the x-passed state and its x-derivatives)
    and 24 real planes (18 transformed, 6 products); 15 at n=16, 3 at
    n=32, 1 from n=64 up."""
    n = grid.n
    return max(1, spectral._BLOCK_BYTES // (12 * n * grid.kept_columns * 16 + 24 * n * n * 8))


def apply_map(path, sh0, grid, params, cfg):
    """One application of the fixed-point map to a path: the path with
    planes

        heat_u(t) u0         + Q1(u, u) + L1(sigma),
        heat_sigma(t) sigma0 + Q2(u, sigma) + L2(rho),
        rho0                 + N(u, rho),

    of the module docstring, from the data `sh0`, as one trapezoid
    recursion over the nodes with E each plane's heat factor over one node
    step, h = ds/2 and G_j the integrand of node j:

        new_0 = sh0,    new_j = E (new_{j-1} + h G_{j-1}) + h G_j.

    It carries the heat flow of the data and the Duhamel sum at once, since
    heat(t_j) = E heat(t_{j-1}) on uniform nodes.  The nodes are visited in
    blocks of `_node_block`, one `explicit_terms` evaluation per block; the
    one carry array, new_j + h G_j, runs on from block to block.

    The path's velocity must be divergence-free, as every iterate's is:
    the integrand's stretching is the stepper's strain form, which is
    Q2's matrix form only on that space (they differ by sigma (div u))."""
    ds = _step(cfg)
    h = 0.5 * ds
    block = min(len(path), _node_block(grid))
    heat = _heat(grid, params, ds)
    new = np.empty_like(path)
    carry = np.empty_like(sh0)
    for start in range(0, len(path), block):
        g = explicit_terms(grid, params, path[start:start + block])
        g *= h
        for j, g_j in enumerate(g, start):
            if j == 0:
                new[0] = sh0
            else:
                np.multiply(heat, carry, out=new[j])
                new[j] += g_j
            np.add(new[j], g_j, out=carry)
        # A block's integrands are freed before the next block forms its own.
        del g, g_j
    return new


@np.errstate(over="ignore", invalid="ignore")
def picard_iterate(initial: SimState, params: PhysParams, cfg: PicardConfig):
    """Iterate the mild-formulation map from the heat-flow zeroth iterate of
    the state `initial` until the composite-norm successive difference is
    below tol (relative).

    Returns (MildTrajectory, PicardHistory).  Non-convergence within
    max_iter, or outright growth, raises PicardDivergenceError, whose
    message advises raising max_iter if the last contraction ratio is below
    one and reducing t0 otherwise.  Overflow and nan are not warned of, as
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
        new = apply_map(path, sh0, grid, params, cfg)
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

    # A ratio needs two differences; with one there is none to print.  A
    # last ratio below one contracts, and more iterations would converge.
    last = (f"last contraction ratio {hist.ratios[-1]:.3g}" if hist.ratios
            else "one difference, so no contraction ratio")
    advice = "raise max_iter" if hist.ratios and hist.ratios[-1] < 1.0 else "reduce t0"
    raise PicardDivergenceError(
        f"no convergence in {cfg.max_iter} iterations ({last}); {advice}", hist,
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
    """Geometric mean of the history's ratios of successive differences;
    below one for a contracting iteration, exactly zero once a difference
    hits zero."""
    if any(d == 0.0 for d in history.diffs):
        return 0.0
    if len(history.ratios) < 2:
        raise ValueError("need at least three iterations to estimate contraction")
    return float(np.exp(np.mean(np.log(history.ratios))))
