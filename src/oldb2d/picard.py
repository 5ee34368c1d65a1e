"""Mild-formulation fixed point: Duhamel integral operators with exact
per-mode heat kernels and trapezoidal quadrature in time, the successive
substitution loop, and contraction diagnostics.

Time-indexed fields are half-spectrum (`rfft2`) coefficient arrays sampled
on uniform nodes over [0, t0]: velocity (m, 2, n, n//2+1), stress
(m, 3, n, n//2+1) in (a, b, c) order, density (m, n, n//2+1).  The map
sends (u, sigma, rho) to

    u_new     = heat(nu t) u0          + Q1(u, u) + L1(sigma)
    sigma_new = heat((kappa lap - 2k) t) sigma0 + Q2(u, sigma) + L2(rho)
    rho_new   = transport of rho0 by the frozen velocity u

so a fixed point solves the coupled system in integral form.  The stress
stretching term inside Q2 is assembled in matrix components, independently
of the strain-based assembly in `dynamics`.

One application of the map transforms the velocity path and its gradient
to real space once, in a single `irfft2` over (m, 6, n, n//2+1), and shares
those planes between Q1, Q2 and the transport.  Integrands under the same
kernel (Q1 + L1, Q2 + L2) are summed before one quadrature.  The public
operators `op_q1`, `op_l1`, `op_q2`, `op_l2` and `op_n` remain the
definitions; the map is their composition.  The complex stacks behind both
transforms share one scratch buffer, held across calls with the two real
outputs, so a warm map allocates none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import PhysParams, SimState, StressField, sim_state
from .spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    _leading,
    _Scratch,
    irfft2,
    rfft2,
)

_SUBSTEP_CFL = 0.5       # frozen-velocity transport uses the stepper's default
_MAX_SUBSTEPS = 100_000  # across the whole path; beyond this the velocity is absurd

# The map's transform stacks and their real transforms, held across calls.
_SCRATCH = _Scratch()


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
    u: np.ndarray      # (m, 2, n, n//2+1) half spectrum
    abc: np.ndarray    # (m, 3, n, n//2+1) half spectrum
    rho: np.ndarray    # (m, n, n//2+1) half spectrum

    def state(self, j: int) -> SimState:
        sh = np.concatenate([self.u[j], self.abc[j], self.rho[j, None]])
        return SimState(float(self.times[j]), self.grid, irfft2(sh, self.grid.n))


def _accumulate(g_path: np.ndarray, decay: np.ndarray, ds: float) -> np.ndarray:
    """I(t_j) = int_0^{t_j} E(t_j - s) G(s) ds, trapezoid in s with the exact
    per-mode kernel E applied through the semigroup recursion."""
    out = np.zeros_like(g_path)
    for j in range(1, g_path.shape[0]):
        out[j] = decay * (out[j - 1] + 0.5 * ds * g_path[j - 1]) + 0.5 * ds * g_path[j]
    return out


def _step(cfg: PicardConfig) -> float:
    times = cfg.times()
    return times[1] - times[0]


def _heat_decay(grid: SpectralGrid, params: PhysParams, ds: float) -> np.ndarray:
    return np.exp(-params.nu * grid.k_sq * ds)


def _stress_decay(grid: SpectralGrid, params: PhysParams, ds: float) -> np.ndarray:
    return np.exp(-(params.kappa * grid.k_sq + 2.0 * params.k) * ds)


def _project_path(grid: SpectralGrid, f: np.ndarray) -> np.ndarray:
    kd = (grid.kx * f[:, 0] + grid.ky * f[:, 1]) * grid.inv_k_sq_d
    return np.stack([f[:, 0] - grid.kx * kd, f[:, 1] - grid.ky * kd], axis=1)


def _gradient(grid: SpectralGrid) -> np.ndarray:
    """(ikx, iky) stacked, shape (2, n, n//2+1)."""
    return np.stack([grid.ikx, grid.iky])


def _stack(grid: SpectralGrid, m: int) -> np.ndarray:
    """The complex scratch stack (m, 9, n, n//2+1).  The velocity stack is
    its leading (m, 6, ...) block and the stress stack all of it; each is
    dead once its transform has read it, and the stress integrand then
    takes its leading real planes."""
    return _SCRATCH.take("stack", (m, 9, grid.n, grid.n // 2 + 1))


def _velocity_planes(u_path: np.ndarray, v_path: np.ndarray,
                     grid: SpectralGrid) -> np.ndarray:
    """Real planes (u1, u2, d1v1, d2v1, d1v2, d2v2) per node, shape
    (m, 6, n, n), from one `irfft2`.  The result is a scratch buffer: it
    stays valid until the next call."""
    m, n = u_path.shape[0], grid.n
    grad = _gradient(grid)
    spec = _leading(_stack(grid, m), (m, 6) + u_path.shape[2:])
    spec[:, 0:2] = u_path
    np.multiply(grad, v_path[:, 0, None], out=spec[:, 2:4])
    np.multiply(grad, v_path[:, 1, None], out=spec[:, 4:6])
    return irfft2(spec, n, overwrite_x=True,
                  out=_SCRATCH.take("velocity", (m, 6, n, n), float))


def _advection(planes: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Dealiased -(u.grad v) from velocity planes, before projection."""
    u1, u2, d1v1, d2v1, d1v2, d2v2 = np.moveaxis(planes, 1, 0)
    g = np.stack([u1 * d1v1 + u2 * d2v1, u1 * d1v2 + u2 * d2v2], axis=1)
    return -rfft2(g) * grid.mask


def _stress_divergence(abc_path: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """div sigma in (a, b, c) coordinates, before projection."""
    ah, bh, ch = abc_path[:, 0], abc_path[:, 1], abc_path[:, 2]
    f1 = grid.ikx * (0.5 * ch + ah) + grid.iky * bh
    f2 = grid.ikx * bh + grid.iky * (0.5 * ch - ah)
    return np.stack([f1, f2], axis=1)


def op_q1(u_path: np.ndarray, v_path: np.ndarray, grid: SpectralGrid,
          params: PhysParams, cfg: PicardConfig) -> np.ndarray:
    """-int_0^t heat(nu (t-s)) P(u(s).grad v(s)) ds at every node."""
    ds = _step(cfg)
    gh = _project_path(grid, _advection(_velocity_planes(u_path, v_path, grid), grid))
    return _accumulate(gh, _heat_decay(grid, params, ds), ds)


def op_l1(abc_path: np.ndarray, grid: SpectralGrid, params: PhysParams,
          cfg: PicardConfig) -> np.ndarray:
    """K int_0^t heat(nu (t-s)) P(div sigma(s)) ds."""
    ds = _step(cfg)
    gh = params.bigK * _project_path(grid, _stress_divergence(abc_path, grid))
    return _accumulate(gh, _heat_decay(grid, params, ds), ds)


def q2_integrand(u_path: np.ndarray, abc_path: np.ndarray, grid: SpectralGrid,
                 *, planes: np.ndarray | None = None) -> np.ndarray:
    """(grad u) sigma + sigma (grad u)^T - u.grad(sigma) in (a, b, c) order,
    assembled from matrix components; dealiased half-spectrum output.

    `planes` are the velocity planes of `u_path` (see `_velocity_planes`)
    when the caller already holds them."""
    if planes is None:
        planes = _velocity_planes(u_path, u_path, grid)
    m, n = abc_path.shape[0], grid.n
    grad = _gradient(grid)
    spec = _stack(grid, m).reshape((m, 3, 3) + abc_path.shape[2:])
    spec[:, 0, 0] = 0.5 * abc_path[:, 2] + abc_path[:, 0]   # s11
    spec[:, 1, 0] = abc_path[:, 1]                          # s12
    spec[:, 2, 0] = 0.5 * abc_path[:, 2] - abc_path[:, 0]   # s22
    np.multiply(grad, spec[:, :, 0, None], out=spec[:, :, 1:])
    real = irfft2(spec, n, overwrite_x=True,
                  out=_SCRATCH.take("stress", (m, 3, 3, n, n), float))
    (s11, d1s11, d2s11), (s12, d1s12, d2s12), (s22, d1s22, d2s22) = (
        np.moveaxis(real, (1, 2), (0, 1)))
    u1, u2, g11, g12, g21, g22 = np.moveaxis(planes, 1, 0)

    i11 = 2.0 * (g11 * s11 + g12 * s12) - (u1 * d1s11 + u2 * d2s11)
    i12 = g11 * s12 + g12 * s22 + s11 * g21 + s12 * g22 - (u1 * d1s12 + u2 * d2s12)
    i22 = 2.0 * (g21 * s12 + g22 * s22) - (u1 * d1s22 + u2 * d2s22)

    out = np.stack([0.5 * (i11 - i22), i12, i11 + i22], axis=1,
                   out=_leading(spec, (m, 3, n, n), float))
    gh = rfft2(out)
    gh *= grid.mask
    return gh


def op_q2(u_path: np.ndarray, abc_path: np.ndarray, grid: SpectralGrid,
          params: PhysParams, cfg: PicardConfig) -> np.ndarray:
    """int_0^t heat((kappa lap - 2k)(t-s)) [stretching - advection](s) ds."""
    ds = _step(cfg)
    return _accumulate(q2_integrand(u_path, abc_path, grid),
                       _stress_decay(grid, params, ds), ds)


def op_l2(rho_path: np.ndarray, grid: SpectralGrid, params: PhysParams,
          cfg: PicardConfig) -> np.ndarray:
    """2k int_0^t heat((kappa lap - 2k)(t-s)) rho(s) I ds; in (a, b, c)
    coordinates the identity matrix contributes only to c, with weight 2."""
    ds = _step(cfg)
    out = np.zeros((rho_path.shape[0], 3) + rho_path.shape[1:], dtype=complex)
    out[:, 2] = _accumulate(4.0 * params.k * rho_path,
                            _stress_decay(grid, params, ds), ds)
    return out


def op_n(u_path: np.ndarray, rho0: np.ndarray, grid: SpectralGrid,
         cfg: PicardConfig, *, planes: np.ndarray | None = None) -> np.ndarray:
    """Transport rho0 by the frozen, time-interpolated velocity; sampled at
    the quadrature nodes.  Sub-steps between nodes obey the advective CFL.

    `planes` are the velocity planes of `u_path` when the caller already
    holds them; only the first two (u1, u2) are read."""
    times = cfg.times()
    m = len(times)
    mask = grid.mask
    grad = _gradient(grid)
    out = np.empty((m,) + rho0.shape, dtype=complex)
    out[0] = rho0 * mask
    u_r = planes[:, :2] if planes is not None else irfft2(u_path, grid.n)
    h = grid.spacing

    def rhs(rho_h, u):
        dr = irfft2(grad * rho_h, grid.n)
        return -rfft2(u[0] * dr[0] + u[1] * dr[1]) * mask

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
        u_start, u_jump = u_r[j], u_r[j + 1] - u_r[j]
        for s in range(n_sub):
            th0 = (s * dt) / span
            th1 = ((s + 1) * dt) / span
            thh = ((s + 0.5) * dt) / span
            r1 = rho_h + dt * rhs(rho_h, u_start + th0 * u_jump)
            r2 = 0.75 * rho_h + 0.25 * (r1 + dt * rhs(r1, u_start + th1 * u_jump))
            rho_h = (rho_h + 2.0 * (r2 + dt * rhs(r2, u_start + thh * u_jump))) / 3.0
        out[j + 1] = rho_h
    return out


# --- composite norm proxies -------------------------------------------------

def _sobolev_sq(grid: SpectralGrid, coeffs: np.ndarray, order: int,
                weights: np.ndarray | None = None) -> np.ndarray:
    """Bessel-type Sobolev proxy (1 + |k|^2)^order per node, a Parseval sum
    over the half spectrum with the Hermitian weights; `weights` mixes
    components (Frobenius weights for the stress)."""
    bess = grid.weights * (1.0 + grid.k_sq) ** order
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


def composite_norm(grid, u_path, abc_path, rho_path, times) -> float:
    return (
        _u_norm(grid, u_path, times)
        + _sigma_norm(grid, abc_path, times)
        + _rho_norm(grid, rho_path, times)
    )


# --- the iteration ----------------------------------------------------------

def _initial_coeffs(u0: VectorField, sigma0: StressField, rho0: ScalarField,
                    grid: SpectralGrid):
    """Dealiased half-spectrum coefficients of the data, u0 projected; one
    `rfft2` over the six planes."""
    coeffs = rfft2(sim_state(0.0, u0, sigma0, rho0).planes) * grid.mask
    u0h = _project_path(grid, coeffs[None, 0:2])[0]
    return u0h, coeffs[2:5], coeffs[5]


def semigroup_paths(u0h, abc0h, grid, params, cfg):
    """The zeroth iterate: pure heat flow of the initial data."""
    times = cfg.times()[:, None, None]
    k_sq = grid.k_sq
    eu = np.exp(-params.nu * k_sq * times)
    es = np.exp(-(params.kappa * k_sq + 2.0 * params.k) * times)
    return eu[:, None] * u0h[None], es[:, None] * abc0h[None]


def apply_map(u_path, abc_path, rho_path, u0h, abc0h, rho0h, grid, params, cfg):
    """One application of the fixed-point map to a time-indexed triple.
    Equal, to rounding, to

        sem_u + op_q1(u, u) + op_l1(sigma),
        sem_sigma + op_q2(u, sigma) + op_l2(rho),
        op_n(u, rho0),

    with one velocity transform shared by all three and one quadrature per
    kernel.  The transform stacks are module scratch (`_SCRATCH`), so
    calls must not overlap across threads."""
    sem_u, sem_abc = semigroup_paths(u0h, abc0h, grid, params, cfg)
    ds = _step(cfg)
    planes = _velocity_planes(u_path, u_path, grid)
    fh = _advection(planes, grid) + params.bigK * _stress_divergence(abc_path, grid)
    new_u = sem_u + _accumulate(_project_path(grid, fh), _heat_decay(grid, params, ds), ds)
    gh = q2_integrand(u_path, abc_path, grid, planes=planes)
    gh[:, 2] += 4.0 * params.k * rho_path
    new_abc = sem_abc + _accumulate(gh, _stress_decay(grid, params, ds), ds)
    new_rho = op_n(u_path, rho0h, grid, cfg, planes=planes)
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
