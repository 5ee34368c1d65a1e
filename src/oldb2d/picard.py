"""Mild-formulation fixed point: Duhamel integral operators with exact
per-mode heat kernels and trapezoidal quadrature in time, the successive
substitution loop, and contraction diagnostics.

Time-indexed fields are spectral coefficient arrays sampled on uniform
nodes over [0, t0]: velocity (m, 2, n, n), stress (m, 3, n, n) in (a, b, c)
order, density (m, n, n).  The map sends (u, sigma, rho) to

    u_new     = heat(nu t) u0          + Q1(u, u) + L1(sigma)
    sigma_new = heat((kappa lap - 2k) t) sigma0 + Q2(u, sigma) + L2(rho)
    rho_new   = transport of rho0 by the frozen velocity u

so a fixed point solves the coupled system in integral form.  The stress
stretching term inside Q2 is assembled in matrix components, independently
of the strain-based assembly in `dynamics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import SimState, StressField, PhysParams
from .spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    scalar_field,
    to_real,
    to_spectral,
    vector_field,
)

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
    grid: SpectralGrid
    times: np.ndarray
    u: np.ndarray      # (m, 2, n, n) spectral
    abc: np.ndarray    # (m, 3, n, n) spectral
    rho: np.ndarray    # (m, n, n) spectral

    def state(self, j: int) -> SimState:
        g = self.grid
        return SimState(
            time=float(self.times[j]),
            u=vector_field(g, to_real(self.u[j])),
            stress=StressField(
                scalar_field(g, to_real(self.abc[j, 0])),
                scalar_field(g, to_real(self.abc[j, 1])),
                scalar_field(g, to_real(self.abc[j, 2])),
            ),
            rho=scalar_field(g, to_real(self.rho[j])),
        )


def _accumulate(g_path: np.ndarray, decay: np.ndarray, ds: float) -> np.ndarray:
    """I(t_j) = int_0^{t_j} E(t_j - s) G(s) ds, trapezoid in s with the exact
    per-mode kernel E applied through the semigroup recursion."""
    out = np.zeros_like(g_path)
    for j in range(1, g_path.shape[0]):
        out[j] = decay * (out[j - 1] + 0.5 * ds * g_path[j - 1]) + 0.5 * ds * g_path[j]
    return out


def _project_path(grid: SpectralGrid, f: np.ndarray) -> np.ndarray:
    kd = (grid.kx_d * f[:, 0] + grid.ky_d * f[:, 1]) * grid.inv_k_sq_d
    return np.stack([f[:, 0] - grid.kx_d * kd, f[:, 1] - grid.ky_d * kd], axis=1)


def op_q1(u_path: np.ndarray, v_path: np.ndarray, grid: SpectralGrid,
          params: PhysParams, cfg: PicardConfig) -> np.ndarray:
    """-int_0^t heat(nu (t-s)) P(u(s).grad v(s)) ds at every node."""
    times = cfg.times()
    ds = times[1] - times[0]
    u_r = to_real(u_path)
    d1v1 = to_real(grid.ikx * v_path[:, 0])
    d2v1 = to_real(grid.iky * v_path[:, 0])
    d1v2 = to_real(grid.ikx * v_path[:, 1])
    d2v2 = to_real(grid.iky * v_path[:, 1])
    g1 = -(u_r[:, 0] * d1v1 + u_r[:, 1] * d2v1)
    g2 = -(u_r[:, 0] * d1v2 + u_r[:, 1] * d2v2)
    gh = to_spectral(np.stack([g1, g2], axis=1)) * grid.dealias_mask
    gh = _project_path(grid, gh)
    decay = np.exp(-params.nu * grid.k_sq * ds)
    return _accumulate(gh, decay, ds)


def op_l1(abc_path: np.ndarray, grid: SpectralGrid, params: PhysParams,
          cfg: PicardConfig) -> np.ndarray:
    """K int_0^t heat(nu (t-s)) P(div sigma(s)) ds."""
    times = cfg.times()
    ds = times[1] - times[0]
    ah, bh, ch = abc_path[:, 0], abc_path[:, 1], abc_path[:, 2]
    f1 = grid.ikx * (0.5 * ch + ah) + grid.iky * bh
    f2 = grid.ikx * bh + grid.iky * (0.5 * ch - ah)
    gh = params.bigK * _project_path(grid, np.stack([f1, f2], axis=1))
    decay = np.exp(-params.nu * grid.k_sq * ds)
    return _accumulate(gh, decay, ds)


def q2_integrand(u_path: np.ndarray, abc_path: np.ndarray,
                 grid: SpectralGrid) -> np.ndarray:
    """(grad u) sigma + sigma (grad u)^T - u.grad(sigma) in (a, b, c) order,
    assembled from matrix components; dealiased spectral output."""
    s11h = 0.5 * abc_path[:, 2] + abc_path[:, 0]
    s12h = abc_path[:, 1]
    s22h = 0.5 * abc_path[:, 2] - abc_path[:, 0]

    u_r = to_real(u_path)
    g11 = to_real(grid.ikx * u_path[:, 0])   # d1 u1
    g12 = to_real(grid.iky * u_path[:, 0])   # d2 u1
    g21 = to_real(grid.ikx * u_path[:, 1])   # d1 u2
    g22 = to_real(grid.iky * u_path[:, 1])   # d2 u2

    comps = []
    for sh in (s11h, s12h, s22h):
        comps.append(to_real(np.stack([sh, grid.ikx * sh, grid.iky * sh], axis=1)))
    (s11, d1s11, d2s11), (s12, d1s12, d2s12), (s22, d1s22, d2s22) = (
        (c[:, 0], c[:, 1], c[:, 2]) for c in comps
    )

    u1, u2 = u_r[:, 0], u_r[:, 1]
    i11 = 2.0 * (g11 * s11 + g12 * s12) - (u1 * d1s11 + u2 * d2s11)
    i12 = g11 * s12 + g12 * s22 + s11 * g21 + s12 * g22 - (u1 * d1s12 + u2 * d2s12)
    i22 = 2.0 * (g21 * s12 + g22 * s22) - (u1 * d1s22 + u2 * d2s22)

    out = np.stack([0.5 * (i11 - i22), i12, i11 + i22], axis=1)
    return to_spectral(out) * grid.dealias_mask


def op_q2(u_path: np.ndarray, abc_path: np.ndarray, grid: SpectralGrid,
          params: PhysParams, cfg: PicardConfig) -> np.ndarray:
    """int_0^t heat((kappa lap - 2k)(t-s)) [stretching - advection](s) ds."""
    times = cfg.times()
    ds = times[1] - times[0]
    gh = q2_integrand(u_path, abc_path, grid)
    decay = np.exp(-(params.kappa * grid.k_sq + 2.0 * params.k) * ds)
    return _accumulate(gh, decay, ds)


def op_l2(rho_path: np.ndarray, grid: SpectralGrid, params: PhysParams,
          cfg: PicardConfig) -> np.ndarray:
    """2k int_0^t heat((kappa lap - 2k)(t-s)) rho(s) I ds; in (a, b, c)
    coordinates the identity matrix contributes only to c, with weight 2."""
    times = cfg.times()
    ds = times[1] - times[0]
    zero = np.zeros_like(rho_path)
    gh = np.stack([zero, zero, 4.0 * params.k * rho_path], axis=1)
    decay = np.exp(-(params.kappa * grid.k_sq + 2.0 * params.k) * ds)
    return _accumulate(gh, decay, ds)


def op_n(u_path: np.ndarray, rho0: np.ndarray, grid: SpectralGrid,
         cfg: PicardConfig) -> np.ndarray:
    """Transport rho0 by the frozen, time-interpolated velocity; sampled at
    the quadrature nodes.  Sub-steps between nodes obey the advective CFL."""
    times = cfg.times()
    m = len(times)
    out = np.empty((m,) + rho0.shape, dtype=complex)
    out[0] = rho0 * grid.dealias_mask
    u_r = to_real(u_path)
    mask = grid.dealias_mask
    h = grid.spacing

    def rhs(rho_h, ur_pair, theta):
        u1 = ur_pair[0][0] + theta * (ur_pair[1][0] - ur_pair[0][0])
        u2 = ur_pair[0][1] + theta * (ur_pair[1][1] - ur_pair[0][1])
        dr = to_real(np.stack([grid.ikx * rho_h, grid.iky * rho_h]))
        return -to_spectral(u1 * dr[0] + u2 * dr[1]) * mask

    # Budget the whole path up front so an exploding velocity fails fast
    # instead of grinding through millions of sub-steps.
    umaxes = np.max(np.abs(u_r), axis=(1, 2, 3))
    spans = np.diff(times)
    counts = np.maximum(
        1,
        np.ceil(spans / (_SUBSTEP_CFL * h / np.maximum(
            np.maximum(umaxes[:-1], umaxes[1:]), 1e-12))),
    ).astype(int)
    if int(np.sum(counts)) > _MAX_SUBSTEPS:
        raise ValueError("transport sub-stepping CFL violation: velocity too large")

    for j in range(m - 1):
        span = spans[j]
        n_sub = int(counts[j])
        dt = span / n_sub
        rho_h = out[j].copy()
        u_pair = (u_r[j], u_r[j + 1])
        for s in range(n_sub):
            th0 = (s * dt) / span
            th1 = ((s + 1) * dt) / span
            thh = ((s + 0.5) * dt) / span
            r1 = rho_h + dt * rhs(rho_h, u_pair, th0)
            r2 = 0.75 * rho_h + 0.25 * (r1 + dt * rhs(r1, u_pair, th1))
            rho_h = (rho_h + 2.0 * (r2 + dt * rhs(r2, u_pair, thh))) / 3.0
        out[j + 1] = rho_h
    return out


# --- composite norm proxies -------------------------------------------------

def _sobolev_sq(grid: SpectralGrid, coeffs: np.ndarray, order: int,
                weights: np.ndarray | None = None) -> np.ndarray:
    """Bessel-type Sobolev proxy (1 + |k|^2)^order per node; `weights` mixes
    components (Frobenius weights for the stress)."""
    bess = (1.0 + grid.k_sq) ** order
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
    l1 = np.mean(np.abs(to_real(rho_path)), axis=(-2, -1)) * grid.area
    w12 = np.sqrt(_sobolev_sq(grid, rho_path, 1))
    return float(np.max(l1 + w12))


def composite_norm(grid, u_path, abc_path, rho_path, times) -> float:
    return (
        _u_norm(grid, u_path, times)
        + _sigma_norm(grid, abc_path, times)
        + _rho_norm(grid, rho_path, times)
    )


# --- the iteration ----------------------------------------------------------

def _initial_coeffs(u0: VectorField, sigma0: StressField, rho0: ScalarField,
                    grid: SpectralGrid):
    mask = grid.dealias_mask
    u0h = u0.coeffs * mask
    kd = (grid.kx_d * u0h[0] + grid.ky_d * u0h[1]) * grid.inv_k_sq_d
    u0h = np.stack([u0h[0] - grid.kx_d * kd, u0h[1] - grid.ky_d * kd])
    abc0h = np.stack([sigma0.a.coeffs, sigma0.b.coeffs, sigma0.c.coeffs]) * mask
    rho0h = rho0.coeffs * mask
    return u0h, abc0h, rho0h


def semigroup_paths(u0h, abc0h, grid, params, cfg):
    """The zeroth iterate: pure heat flow of the initial data."""
    times = cfg.times()[:, None, None]
    eu = np.exp(-params.nu * grid.k_sq * times)
    es = np.exp(-(params.kappa * grid.k_sq + 2.0 * params.k) * times)
    return eu[:, None] * u0h[None], es[:, None] * abc0h[None]


def apply_map(u_path, abc_path, rho_path, u0h, abc0h, rho0h, grid, params, cfg):
    """One application of the fixed-point map to a time-indexed triple."""
    sem_u, sem_abc = semigroup_paths(u0h, abc0h, grid, params, cfg)
    new_u = sem_u + op_q1(u_path, u_path, grid, params, cfg) \
        + op_l1(abc_path, grid, params, cfg)
    new_abc = sem_abc + op_q2(u_path, abc_path, grid, params, cfg) \
        + op_l2(rho_path, grid, params, cfg)
    new_rho = op_n(u_path, rho0h, grid, cfg)
    return new_u, new_abc, new_rho


def picard_iterate(u0: VectorField, sigma0: StressField, rho0: ScalarField,
                   params: PhysParams, cfg: PicardConfig):
    """Iterate the mild-formulation map from the heat-flow zeroth iterate
    until the composite-norm successive difference is below tol (relative).

    Returns (MildTrajectory, PicardHistory).  Non-convergence within
    max_iter, or outright growth, raises PicardDivergenceError: the horizon
    t0 is too large for the data.
    """
    grid = u0.grid
    times = cfg.times()
    u0h, abc0h, rho0h = _initial_coeffs(u0, sigma0, rho0, grid)

    u_path, abc_path = semigroup_paths(u0h, abc0h, grid, params, cfg)
    rho_path = np.broadcast_to(rho0h, (cfg.n_time_nodes,) + rho0h.shape).copy()

    hist = PicardHistory()

    def log_norms(up, ap, rp):
        hist.u_norms.append(_u_norm(grid, up, times))
        hist.sigma_norms.append(_sigma_norm(grid, ap, times))
        hist.rho_norms.append(_rho_norm(grid, rp, times))

    log_norms(u_path, abc_path, rho_path)

    for _ in range(cfg.max_iter):
        try:
            new_u, new_abc, new_rho = apply_map(
                u_path, abc_path, rho_path, u0h, abc0h, rho0h, grid, params, cfg
            )
        except ValueError as exc:
            # Transport sub-stepping ran out of CFL budget: the iterate has
            # already blown up.
            raise PicardDivergenceError(
                f"iteration diverged ({exc}); reduce t0", hist
            ) from exc
        diff = composite_norm(
            grid, new_u - u_path, new_abc - abc_path, new_rho - rho_path, times
        )
        log_norms(new_u, new_abc, new_rho)
        hist.diffs.append(diff)
        if len(hist.diffs) >= 2 and hist.diffs[-2] > 0.0:
            hist.ratios.append(diff / hist.diffs[-2])

        u_path, abc_path, rho_path = new_u, new_abc, new_rho

        scale = hist.u_norms[-1] + hist.sigma_norms[-1] + hist.rho_norms[-1]
        if not np.isfinite(diff) or diff > 1e10 * max(hist.diffs[0], 1e-300):
            raise PicardDivergenceError(
                f"iteration diverged (last ratio "
                f"{hist.ratios[-1] if hist.ratios else float('inf'):.3g}); "
                "reduce t0", hist,
            )
        if diff <= cfg.tol * max(scale, 1e-300):
            return MildTrajectory(grid, times, u_path, abc_path, rho_path), hist

    last = hist.ratios[-1] if hist.ratios else float("nan")
    raise PicardDivergenceError(
        f"no convergence in {cfg.max_iter} iterations "
        f"(last contraction ratio {last:.3g}); reduce t0", hist,
    )


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
