"""Time integration: integrating-factor SSP-RK3 with exact exponentials for
the stiff linear parts (nu*lap on velocity, kappa*lap - 2k on the stress),
advective CFL step control, and the monitored simulation loop.

Monitor violations abort the run with the failed invariant, the time and
the offending value.  The fixed reporting order on a step with several
failures is: NaN/overflow, positivity (c and rho), gamma, energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import diagnostics
from .dynamics import explicit_terms, pack_state, unpack_state
from .fields import PhysParams, SimState, gamma_field
from .spectral import SpectralGrid, irfft2

_UMAX_FLOOR = 1e-12  # advective speed floor so quiescent states hit dt_max


@dataclass(frozen=True)
class StepControl:
    """Step-size and output policy for a run."""

    cfl: float = 0.5
    dt_min: float = 1e-10
    dt_max: float = 1e-2
    t_end: float = 1.0
    output_every: int = 1
    snapshot_times: tuple = ()
    keep_states: bool = False

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must be in (0, 1]")
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ValueError("dt_min must be positive and at most dt_max")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        if self.output_every < 1:
            raise ValueError("output_every must be at least 1")


@dataclass(frozen=True)
class Monitors:
    """Runtime invariant tolerances; see README for the defaults' rationale."""

    positivity_tol: float = 1e-8
    rho_tol: float = 1e-6
    energy_tol: float = 1e-2
    c_ceiling: float = 1e12
    check_energy: bool = True


class MonitorViolation(RuntimeError):
    """A runtime invariant failed; carries which one, when, and how badly."""

    def __init__(self, kind: str, time: float, value: float, message: str):
        super().__init__(f"[{kind}] t={time:.6g}: {message} (value={value:.6g})")
        self.kind = kind
        self.time = time
        self.value = value


@dataclass
class Trajectory:
    """Diagnostics records (strictly increasing times), optional snapshots at
    requested times, optional per-record states, and the final state."""

    records: list
    snapshots: list
    states: list | None
    final_state: SimState

    @property
    def times(self):
        return np.array([r.time for r in self.records])


def _advective_dt(umax: float, grid: SpectralGrid, ctl: StepControl) -> float:
    return ctl.cfl * grid.spacing / max(umax, _UMAX_FLOOR)


def compute_dt(state: SimState, params: PhysParams, ctl: StepControl) -> float:
    """Advective CFL step clamped to [dt_min, dt_max].  Diffusion and damping
    impose no constraint: they are absorbed exactly by integrating factors."""
    umax = float(np.max(np.abs(state.u.values)))
    return float(np.clip(_advective_dt(umax, state.grid, ctl), ctl.dt_min, ctl.dt_max))


@lru_cache(maxsize=1)
def _multipliers(grid: SpectralGrid, nu: float, kappa: float, k: float, dt: float):
    """Per-mode integrating factors for the current step, stacked per packed
    field and pre-scaled by the SSP-RK3 weights they meet in `_advance`:
    e(dt), 0.75 e(dt/2), 0.25 e(-dt/2) and 2 e(dt/2).  Masked modes get
    factor zero so they stay inert.

    One entry, keyed by the grid's identity: a CFL-limited run changes dt
    every step, so older entries would only hold memory."""
    ksq, mask = grid.k_sq, grid.mask
    # The three distinct linear operators (nu, stress, zero), expanded to
    # the six packed planes (u1, u2, a, b, c, rho) by indexing.
    lin = np.stack([-nu * ksq, -(kappa * ksq + 2.0 * k), np.zeros_like(ksq)])
    lin = np.where(mask, lin, 0.0)
    planes = [0, 0, 1, 1, 1, 2]

    def factor(tau):
        return (np.exp(lin * tau) * mask)[planes]

    e_mid = factor(0.5 * dt)
    return factor(dt), 0.75 * e_mid, 0.25 * factor(-0.5 * dt), 2.0 * e_mid


def _advance(grid: SpectralGrid, params: PhysParams, sh: np.ndarray, dt: float) -> np.ndarray:
    """One integrating-factor SSP-RK3 step on packed coefficients:

        s1  = e(dt) (sh + dt N(sh))
        s2  = 0.75 e(dt/2) sh + 0.25 e(-dt/2) (s1 + dt N(s1))
        out = (e(dt) sh + 2 e(dt/2) (s2 + dt N(s2))) / 3

    Each stage is formed in place in the array `explicit_terms` returned."""
    e_full, e_mid_34, e_back_14, e_mid_2 = _multipliers(
        grid, params.nu, params.kappa, params.k, dt
    )

    s1 = explicit_terms(grid, params, sh)
    s1 *= dt
    s1 += sh
    s1 *= e_full

    s2 = explicit_terms(grid, params, s1)
    s2 *= dt
    s2 += s1
    s2 *= e_back_14
    s2 += np.multiply(e_mid_34, sh, out=s1)
    del s1

    out = explicit_terms(grid, params, s2)
    out *= dt
    out += s2
    out *= e_mid_2
    out += np.multiply(e_full, sh, out=s2)
    del s2
    out /= 3.0

    # Re-project the velocity to absorb rounding drift in the divergence.
    kd = (grid.kx * out[0] + grid.ky * out[1]) * grid.inv_k_sq_d
    out[0] -= grid.kx * kd
    out[1] -= grid.ky * kd
    return out


def _check_admissible(state: SimState, tol: float, where: str):
    gam = gamma_field(state.stress).values
    cmax = float(np.max(state.stress.c.values))
    if not np.isfinite(gam).all():
        raise ValueError(f"{where}: non-finite stress")
    if float(np.min(gam)) < -tol * max(1.0, cmax):
        raise ValueError(
            f"{where}: state is not admissible (min gamma = {float(np.min(gam)):.3e})"
        )


def step(state: SimState, dt: float, params: PhysParams) -> SimState:
    """Advance one step of size dt.  Input fields are dealiased on entry."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")
    _check_admissible(state, 1e-6, "step")
    grid = state.grid
    sh = _advance(grid, params, pack_state(state), dt)
    return unpack_state(grid, sh, state.time + dt)


def run(initial: SimState, params: PhysParams, ctl: StepControl,
        monitors: Monitors | None = None) -> Trajectory:
    """Run to t_end under the monitors; raises MonitorViolation on failure.

    Records are taken at the initial state and every `output_every`-th step;
    monitors are evaluated on every step.  The determinant-law residual is
    attached to records only on kappa = 0 runs, where the law is exact.
    """
    mon = monitors or Monitors()
    grid = initial.grid
    _check_admissible(initial, max(mon.positivity_tol, 1e-10), "run initial state")

    sh = pack_state(initial)
    t = float(initial.time)
    t_end = ctl.t_end
    eps_end = 1e-12 * max(1.0, abs(t_end))

    records: list = []
    states: list | None = [] if ctl.keep_states else None
    snapshots: list = []
    pending_snaps = sorted(ctl.snapshot_times)

    reals = irfft2(sh, grid.n)
    led = diagnostics.packed_energy(grid, params, sh, reals)

    window: list = []  # (time, SimState) triples for the determinant residual
    det_window = params.kappa == 0.0

    def current_state() -> SimState:
        return unpack_state(grid, sh, t)

    def take_record():
        det_res = float("nan")
        if det_window and len(window) == 3:
            t0, t1, t2 = (w[0] for w in window)
            if abs((t2 - t1) - (t1 - t0)) <= 1e-9 * max(t2 - t1, 1e-300):
                det_res = diagnostics.determinant_residual(
                    [w[1] for w in window], params
                )
        records.append(diagnostics.make_record(grid, params, t, sh, reals,
                                               determinant_residual=det_res))
        if states is not None:
            states.append(current_state())

    take_record()
    if det_window:
        window.append((t, current_state()))

    step_index = 0
    while t < t_end - eps_end:
        umax = float(np.max(np.abs(reals[0:2])))
        raw = _advective_dt(umax, grid, ctl)
        if raw < ctl.dt_min:
            raise MonitorViolation(
                "dt_underflow", t, raw,
                f"CFL step {raw:.3e} fell below dt_min={ctl.dt_min:.3e}",
            )
        dt = min(max(raw, ctl.dt_min), ctl.dt_max, t_end - t)

        sh = _advance(grid, params, sh, dt)
        t += dt
        step_index += 1

        prev = led
        reals = irfft2(sh, grid.n)
        led = diagnostics.packed_energy(grid, params, sh, reals)

        # Monitors, in the documented tie-break order.
        if not np.isfinite(sh).all():
            raise MonitorViolation("nan", t, float("nan"), "non-finite field value")
        c = reals[4]
        rho = reals[5]
        c_max = float(np.max(c))
        if c_max > mon.c_ceiling:
            raise MonitorViolation(
                "overflow", t, c_max, f"max c exceeded the ceiling {mon.c_ceiling:.3e}"
            )
        scale_c = max(1.0, c_max)
        min_c = float(np.min(c))
        if min_c < -mon.positivity_tol * scale_c:
            raise MonitorViolation("positivity", t, min_c, "min c went negative")
        min_rho = float(np.min(rho))
        if min_rho < -mon.rho_tol * max(1.0, float(np.max(rho))):
            raise MonitorViolation("positivity", t, min_rho, "min rho went negative")
        a, b = reals[2], reals[3]
        min_gamma = float(np.min(c - 2.0 * np.sqrt(a * a + b * b)))
        if min_gamma < -mon.positivity_tol * scale_c:
            raise MonitorViolation("gamma", t, min_gamma, "min gamma went negative")
        if mon.check_energy:
            rate_excess = (led.energy - prev.energy) / dt - (-led.dissipation + led.source)
            scale = max(led.dissipation, led.source, abs(led.energy) * params.k, 1e-300)
            if rate_excess > mon.energy_tol * scale:
                raise MonitorViolation(
                    "energy", t, rate_excess,
                    "energy production rate exceeded dissipation + source budget",
                )

        if det_window:
            window.append((t, current_state()))
            if len(window) > 3:
                window.pop(0)

        while pending_snaps and t >= pending_snaps[0] - eps_end:
            pending_snaps.pop(0)
            snapshots.append((t, current_state()))

        if step_index % ctl.output_every == 0:
            take_record()

    return Trajectory(records, snapshots, states, current_state())
