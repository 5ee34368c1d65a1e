"""Time integration: integrating-factor SSP-RK3 with exact exponentials for
the stiff linear parts (`fields.linear_operators`), advective CFL step
control, and the monitored simulation loop.

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
from .dynamics import _terms, explicit_terms, pack_state, unpack_state
from .fields import OPERATOR_PLANES, PhysParams, SimState, linear_operators
from .spectral import SpectralGrid, irfft2, project

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

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must be in (0, 1]")
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ValueError("dt_min must be positive and at most dt_max")
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        if self.output_every < 1:
            raise ValueError("output_every must be at least 1")


@dataclass(frozen=True)
class Monitors:
    """Runtime invariant tolerances; see README for the defaults' rationale."""

    positivity_tol: float = 1e-8
    rho_tol: float = 1e-6
    energy_tol: float = 1e-2
    c_ceiling: float = 1e12

    def __post_init__(self):
        for name in ("positivity_tol", "rho_tol", "energy_tol"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if not self.c_ceiling > 0.0:
            raise ValueError("c_ceiling must be positive")


class MonitorViolation(RuntimeError):
    """A runtime invariant failed; carries which one, when, and how badly."""

    def __init__(self, kind: str, time: float, value: float, message: str):
        super().__init__(f"[{kind}] t={time:.6g}: {message} (value={value:.6g})")
        self.kind = kind
        self.time = time
        self.value = value


def _step_dt(grid: SpectralGrid, ctl: StepControl, u: np.ndarray, t: float) -> float:
    """`run`'s step rule at time t: the advective CFL step of the velocity
    planes `u`, capped at dt_max and at the time left to t_end.  A
    non-finite speed raises `nan` and a CFL step below dt_min raises
    `dt_underflow`, as does a step too small to change t (t + dt == t,
    at |t| beyond about 1e17 for dt_max = 1e-2); none becomes a dt.

    The rule has no stiffness bound, yet diffusion and damping do limit the
    step: `_advance`'s stage 2 multiplies by 0.25 e(-dt/2), which grows as
    exp(+lam dt / 2), with lam = kappa |k|^2 + 2k up to its largest kept
    value, and so amplifies the stiffest modes.  A sweep at dt = dt_max =
    2 x / lam on `random_admissible` data (seeds 0-2, amplitudes 0.1 and 1,
    n = 16, 32 and 64, kappa = 5, 20 and 80, t_end = min(0.1, 200 dt))
    passed all 54 runs at x = 1 to 4; its smallest failure was x = 5 (n=16,
    kappa=5, amplitude 1, seed 2: `energy` at the first step).  Past 709
    the factor overflows.  The monitors stop such a run (`energy`,
    `overflow` or `nan`), but a quiet monitor is not accuracy: runs that
    exited 0 with every monitor quiet erred by 1.2e-3 at x = 1.0, 2.1% at
    x = 2.4 and 23% at x = 5.3 against a refined reference, the error
    growing as e^x.  So x <= 4 bounds monitor exits, not the error.

    max |u| is taken as max(max u, -min u), which is the same number
    without an |u| temporary; a nan or an infinity makes it non-finite."""
    umax = max(float(u.max()), -float(u.min()))
    if not math.isfinite(umax):
        raise MonitorViolation("nan", t, umax, "non-finite velocity")
    raw = ctl.cfl * grid.spacing / max(umax, _UMAX_FLOOR)
    if raw < ctl.dt_min:
        raise MonitorViolation(
            "dt_underflow", t, raw,
            f"CFL step {raw:.3e} fell below dt_min={ctl.dt_min:.3e}",
        )
    dt = min(raw, ctl.dt_max, ctl.t_end - t)
    if t + dt == t:
        raise MonitorViolation("dt_underflow", t, dt, f"step {dt:.3e} does not advance t")
    return dt


@lru_cache(maxsize=1)
def _multipliers(grid: SpectralGrid, params: PhysParams, dt: float):
    """Per-mode integrating factors for the current step, pre-scaled by the
    SSP-RK3 weights they meet in `_advance`: e(dt), 0.75 e(dt/2),
    0.25 e(-dt/2) and 2 e(dt/2).  Each is one (3, n, n//3+1) array: one
    plane per operator of `fields.linear_operators`, at the kept width of
    the packed state (`grid.kept_columns`); `_apply` gives each plane to
    its operator's planes of the state.  Masked modes within those columns
    get factor zero so they stay inert.

    One entry, keyed by the grid's identity: a CFL-limited run changes dt
    every step, so older entries would only hold memory.  At n=256 the
    entry holds 2.1 MB (six full-width planes per factor held 6.3 MB)."""
    kc = grid.kept_columns
    ksq, mask = grid.k_sq[:, :kc], grid.mask[:, :kc]
    lin = np.stack([-(diffusivity * ksq + damping)
                    for diffusivity, damping in linear_operators(params)])
    lin[:, ~mask] = 0.0

    def factors(tau, *scales):
        """exp(lin * tau) on the kept modes, times each scale."""
        e = lin * tau
        np.exp(e, out=e)
        e *= mask
        return [e * scale for scale in scales]

    (e_full,) = factors(dt, 1.0)
    e_mid_34, e_mid_2 = factors(0.5 * dt, 0.75, 2.0)
    (e_back_14,) = factors(-0.5 * dt, 0.25)
    return e_full, e_mid_34, e_back_14, e_mid_2


def _apply(factor: np.ndarray, sh: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = factor * sh, where each operator's plane of a `_multipliers`
    factor multiplies that operator's planes of the packed coefficients
    `sh` (`fields.OPERATOR_PLANES`)."""
    for f, planes in zip(factor, OPERATOR_PLANES):
        np.multiply(f, sh[planes], out=out[planes])
    return out


def _advance(grid: SpectralGrid, params: PhysParams, sh: np.ndarray, dt: float,
             n0: np.ndarray) -> np.ndarray:
    """One integrating-factor SSP-RK3 step on packed coefficients, given
    n0 = N(sh), the projected explicit terms at sh (`explicit_terms`):

        s1  = e(dt) (sh + dt N(sh))
        s2  = 0.75 e(dt/2) sh + 0.25 e(-dt/2) (s1 + dt N(s1))
        out = (e(dt) sh + 2 e(dt/2) (s2 + dt N(s2))) / 3

    Every array is a packed spectrum at the kept width, (6, n, n//3+1), and
    each factor acts per operator (`_apply`).

    n0's buffer is overwritten: s1 and then s2 are formed in place in it,
    so a caller that still holds n0 adds nothing to the step's peak memory,
    and `out` is formed in the array stage 3's `explicit_terms` returned."""
    e_full, e_mid_34, e_back_14, e_mid_2 = _multipliers(grid, params, dt)

    s = n0
    s *= dt
    s += sh
    _apply(e_full, s, s)

    n1 = explicit_terms(grid, params, s)
    n1 *= dt
    n1 += s
    _apply(e_back_14, n1, n1)
    np.add(n1, _apply(e_mid_34, sh, s), out=s)
    del n1

    out = explicit_terms(grid, params, s)
    out *= dt
    out += s
    _apply(e_mid_2, out, out)
    out += _apply(e_full, sh, s)
    out /= 3.0

    # Re-project the velocity to absorb rounding drift in the divergence.
    project(grid, out)
    return out


def _check_admissible(state: SimState, tol: float, where: str):
    pos = diagnostics._positivity(state.planes, tol)
    # A +inf in c leaves min gamma finite but makes max c infinite.
    if not (math.isfinite(pos.min_gamma) and math.isfinite(pos.max_c)):
        raise ValueError(f"{where}: non-finite stress")
    if pos.min_gamma < -tol * max(1.0, pos.max_c):
        raise ValueError(f"{where}: state is not admissible (min gamma = {pos.min_gamma:.3e})")


def step(state: SimState, dt: float, params: PhysParams) -> SimState:
    """Advance one step of size dt.  Input fields are dealiased on entry."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")
    _check_admissible(state, 1e-6, "step")
    grid = state.grid
    sh = pack_state(state)
    sh = _advance(grid, params, sh, dt, explicit_terms(grid, params, sh))
    return unpack_state(grid, sh, state.time + dt)


def _check_monitors(mon: Monitors, params: PhysParams, t: float, dt: float,
                    pos, prev, led) -> None:
    """The monitors after `nan`, in the documented tie-break order, on the
    state accepted at t after a step dt: its positivity scan `pos` gives
    every extreme they read, and its energy ledger is `led` (`prev` before
    the step)."""
    if pos.max_c > mon.c_ceiling:
        raise MonitorViolation(
            "overflow", t, pos.max_c, f"max c exceeded the ceiling {mon.c_ceiling:.3e}"
        )
    scale_c = max(1.0, pos.max_c)
    if pos.min_c < -mon.positivity_tol * scale_c:
        raise MonitorViolation("positivity", t, pos.min_c, "min c went negative")
    if pos.min_rho < -mon.rho_tol * max(1.0, pos.max_rho):
        raise MonitorViolation("positivity", t, pos.min_rho, "min rho went negative")
    if pos.min_gamma < -mon.positivity_tol * scale_c:
        raise MonitorViolation("gamma", t, pos.min_gamma, "min gamma went negative")
    rate_excess = (led.energy - prev.energy) / dt - (-led.dissipation + led.source)
    scale = max(led.dissipation, led.source, abs(led.energy) * params.k, 1e-300)
    if rate_excess > mon.energy_tol * scale:
        raise MonitorViolation(
            "energy", t, rate_excess,
            "energy production rate exceeded dissipation + source budget",
        )


def run(initial: SimState, params: PhysParams, ctl: StepControl,
        monitors: Monitors | None = None, *, on_record=lambda record: None,
        on_snapshot=lambda t, state: None) -> SimState:
    """Run to t_end under the monitors and return the final state; raises
    MonitorViolation on failure.  An overflow inside the solve gives a
    non-finite state, which the `nan` monitor reports, so numpy's warnings
    for it are silenced, in a `with` block: a decorator's wrapper would
    hold the call's arguments, and so the initial state, for the whole
    run.

    `run` keeps no reference to `initial` once it has checked and packed
    it.  So a caller that hands over its only reference, as `oldb2d run`
    does, has that state freed before the first record is made.

    Records are taken at the initial state and every `output_every`-th step;
    monitors are evaluated on every step.  `run` keeps neither records nor
    snapshots: it hands each record to `on_record(record)`, and each
    requested time t of `snapshot_times` to `on_snapshot(t, state)` with
    the first accepted state at or past t, less 1e-12 max(1, |t_end|) for
    rounding, whose own `time` may be later; one step may pass several
    requests, and then each gets a call with the same state.  Each is handed out as soon as
    the state that gives it has passed the monitors, so when a monitor
    stops the run the caller has had every record and snapshot of the
    states accepted before it.  Both default to discarding them.

    Each accepted state is transformed once.  After the `nan` check, one
    `dynamics._terms(sh, planes=True)` evaluation gives its real planes,
    which one positivity scan and one energy ledger read for the monitors
    and a due record, and which become the one `SimState` that snapshots
    and the final state share, and its explicit terms, which are projected
    in place and become the next step's first stage.  The final state
    needs no next stage: it gets a 6-plane inverse transform only.

    Every spectrum the loop holds is at the kept width.  A cold run of the
    run-large config (n=256, seed 3) through `oldb2d run` peaks at
    13.33 MiB traced (numpy 2.4.6), in the `_terms` evaluation of an
    accepted state: its two 6-plane x-pass arrays, the first of which
    becomes its terms, its row blocks and its real planes, beside the
    packed state, the grid's tables (0.57 MB) and the factor memo.  It
    peaked at 18.36 MiB while the run held the caller's initial state
    (3.0 MiB) and each evaluation a separate terms array (2.0 MiB), and at
    15.34 MiB with only the first let go; full-width spectra and 2 MiB row
    blocks peaked at 26.2 MiB, in the third stage of a step.  Four
    `snapshot_times` add nothing to that peak, where holding their states
    until the return took it to 26.37 MiB.  A cold run of the
    run-monitored config (n=64, seed 3: 21 records over 20 steps, three
    snapshots) through `oldb2d run` peaks at 1.70 MiB traced: 1.91 MiB
    when the initial state and a separate terms array were held, and
    2.46 MiB when its snapshots were held too.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mon = monitors or Monitors()
        grid = initial.grid
        _check_admissible(initial, max(mon.positivity_tol, 1e-10), "run initial state")

        sh = pack_state(initial)
        t = float(initial.time)
        del initial
        t_end = ctl.t_end
        eps_end = 1e-12 * max(1.0, abs(t_end))

        pending_snaps = sorted(ctl.snapshot_times)

        led = None
        step_index = 0
        while True:
            if not np.isfinite(sh).all():
                raise MonitorViolation("nan", t, float("nan"), "non-finite field value")
            more = t < t_end - eps_end
            if more:
                nh, reals = _terms(grid, params, sh, planes=True)
            else:
                reals = irfft2(sh, grid.n)
            state = SimState(t, grid, reals)
            pos = diagnostics._positivity(reals, 0.0)
            prev, led = led, diagnostics.packed_energy(grid, params, sh, reals)

            if step_index:
                _check_monitors(mon, params, t, dt, pos, prev, led)
                while pending_snaps and t >= pending_snaps[0] - eps_end:
                    on_snapshot(pending_snaps.pop(0), state)

            if step_index % ctl.output_every == 0:
                on_record(diagnostics.make_record(grid, t, sh, reals, pos, led))

            if not more:
                return state

            dt = _step_dt(grid, ctl, reals[0:2], t)
            project(grid, nh)
            del reals, state
            sh = _advance(grid, params, sh, dt, nh)
            del nh
            t += dt
            step_index += 1
