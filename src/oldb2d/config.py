"""Flat key=value run configuration and initial-condition presets.

Unknown and duplicate keys are errors; every key has a documented default
(see README).  Presets produce admissible states: `equilibrium` sits at the
relaxation fixed point, `taylor_green` is the decaying vortex with zero
stress, `random_admissible` builds band-limited data with a strictly
positive determinant margin, and `snapshot:<path>` restores a saved state.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import positivity_report
from .fields import PLANES, PhysParams, SimState
from .integrate import Monitors, StepControl
from .spectral import SpectralGrid, dealias, irfft2, rfft2


class ConfigError(ValueError):
    pass


# Bound on a field value times its largest |k|^2 weight: below it, the
# value's square weighted by up to |k|^4 stays under the largest float / 16,
# and a partial sum of the transform, which adds n^2 such values, stays
# finite too.
_SQUARES_LIMIT = math.sqrt(np.finfo(float).max / 16)


PRESETS = ("equilibrium", "taylor_green", "random_admissible")


@dataclass(frozen=True)
class RunConfig:
    n: int
    length: float
    params: PhysParams
    preset: str
    rho0: float
    amplitude: float
    stress_amplitude: float
    init_kmax: int
    seed: int
    control: StepControl
    monitors: Monitors
    constant_c: float


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _parse_times(raw: str) -> tuple:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_finite_float(part) for part in raw.split(","))


# Run policies whose fields are config keys of the same name, parsed by
# the type of their default and defaulting to it: RunConfig attribute and
# policy class.
_POLICIES = (("control", StepControl), ("monitors", Monitors))
_PARSERS = {float: _finite_float, int: int, tuple: _parse_times}

_SCHEMA = {
    # key: (parser, default)
    "n": (int, 64),
    "L": (_finite_float, 2.0 * np.pi),
    "nu": (_finite_float, 0.01),
    "kappa": (_finite_float, 0.01),
    "k": (_finite_float, 1.0),
    "bigK": (_finite_float, 1.0),
    "preset": (str, "equilibrium"),
    "rho0": (_finite_float, 1.0),
    "amplitude": (_finite_float, 0.1),
    "stress_amplitude": (_finite_float, 0.2),
    "init_kmax": (int, 4),
    "seed": (int, 0),
    "constant_c": (_finite_float, 1.0),
    **{f.name: (_PARSERS[type(f.default)], f.default)
       for _, policy in _POLICIES for f in dataclasses.fields(policy)},
}


def parse_config(text: str) -> RunConfig:
    """Parse flat key=value lines ('#' starts a comment) into a RunConfig."""
    seen: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw_line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parser, _ = _SCHEMA[key]
        try:
            seen[key] = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: invalid value for {key!r}: {exc}") from exc

    values = {key: seen.get(key, default) for key, (_, default) in _SCHEMA.items()}

    preset = values["preset"]
    if preset not in PRESETS and not preset.startswith("snapshot:"):
        raise ConfigError(f"unknown preset {values['preset']!r}")
    try:
        params = PhysParams(values["nu"], values["kappa"], values["k"], values["bigK"])
        policies = {name: policy(**{f.name: values[f.name]
                                    for f in dataclasses.fields(policy)})
                    for name, policy in _POLICIES}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if values["n"] < 8 or values["n"] % 2:
        raise ConfigError("n must be an even integer of at least 8")
    if values["L"] <= 0:
        raise ConfigError("L must be positive")
    _check_length(values["n"], values["L"])
    if values["init_kmax"] < 1:
        raise ConfigError("init_kmax must be at least 1")
    if values["seed"] < 0:
        raise ConfigError("seed must be a non-negative integer")
    if values["rho0"] < 0:
        raise ConfigError("rho0 must be non-negative: it is a density")
    return RunConfig(
        n=values["n"],
        length=values["L"],
        params=params,
        preset=preset,
        rho0=values["rho0"],
        amplitude=values["amplitude"],
        stress_amplitude=values["stress_amplitude"],
        init_kmax=values["init_kmax"],
        seed=values["seed"],
        constant_c=values["constant_c"],
        **policies,
    )


def _check_length(n: int, length: float) -> None:
    """Reject a length whose grid area L^2, or whose largest |k|^2 =
    (2 pi / L)^2 n^2 / 2, exceeds `_SQUARES_LIMIT`, the bound on a field
    value times such a weight: no field value of order one would pass it,
    and further out the grid's own area or |k|^2 table overflows.  The
    bounds are compared on L itself, so no overflowing value is formed."""
    root = math.sqrt(_SQUARES_LIMIT)
    low, high = math.pi * math.sqrt(2.0) * n / root, root
    if not low <= length <= high:
        raise ConfigError(f"L={length:g} is outside [{low:.3g}, {high:.3g}], where at n={n} "
                          f"the grid's area L^2 and its largest |k|^2 stay below "
                          f"{_SQUARES_LIMIT:.3g}")


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def band_limited_random(grid: SpectralGrid, rng: np.random.Generator,
                        kmax: int) -> np.ndarray:
    """Zero-mean random field supported on modes with max(|k1|,|k2|) <= kmax,
    scaled to unit max amplitude."""
    noise = rng.standard_normal((grid.n, grid.n))
    ki = np.abs(np.rint(np.fft.fftfreq(grid.n, 1.0 / grid.n)))[:, None]
    kj = np.arange(grid.n // 2 + 1)[None, :]
    band = (ki <= kmax) & (kj <= kmax)
    band[0, 0] = False
    f = irfft2(rfft2(noise) * band, grid.n)
    peak = np.max(np.abs(f))
    return f / peak if peak > 0 else f


def _uniform_state(grid, rho0: float) -> SimState:
    planes = np.zeros((len(PLANES), grid.n, grid.n))
    planes[4] = 2.0 * rho0
    planes[5] = rho0
    return SimState(0.0, grid, planes)


def _taylor_green_state(grid, amplitude: float) -> SimState:
    x, y = grid.nodes()
    scale = 2.0 * np.pi / grid.length
    planes = np.zeros((len(PLANES), grid.n, grid.n))
    planes[0] = amplitude * np.sin(scale * x) * np.cos(scale * y)
    planes[1] = -amplitude * np.cos(scale * x) * np.sin(scale * y)
    return SimState(0.0, grid, planes)


def _random_admissible_state(grid, cfg: RunConfig) -> SimState:
    """Band-limited data built in one (6, n, n) array of `PLANES`: each
    random draw is written into its plane and dropped, and the dealiased
    state is transformed back into the same array."""
    rng = np.random.default_rng(cfg.seed)
    kmax = min(cfg.init_kmax, grid.n // 3)
    planes = np.empty((len(PLANES), grid.n, grid.n))
    u, a, b, c, rho = planes[0:2], *planes[2:]

    np.multiply(cfg.stress_amplitude, band_limited_random(grid, rng, kmax), out=a)
    np.multiply(cfg.stress_amplitude, band_limited_random(grid, rng, kmax), out=b)
    # c = 2 sqrt(a^2 + b^2 + det_margin), det_margin = rho0^2 (1 + g_d / 2)
    # strictly positive, formed in c's plane.
    np.multiply(0.5, band_limited_random(grid, rng, kmax), out=c)
    c += 1.0
    c *= cfg.rho0 * cfg.rho0
    square = a * a
    square += b * b
    c += square
    del square
    np.sqrt(c, out=c)
    c *= 2.0
    np.multiply(0.5, band_limited_random(grid, rng, kmax), out=rho)
    rho += 1.0
    rho *= cfg.rho0

    psih = rfft2(band_limited_random(grid, rng, kmax))
    irfft2(np.stack([-grid.iky * psih, grid.ikx * psih]), grid.n, overwrite_x=True, out=u)
    del psih
    umax = np.max(np.abs(u))
    if umax > 0:
        u *= cfg.amplitude / umax

    irfft2(dealias(grid, planes), grid.n, overwrite_x=True, out=planes)
    return SimState(0.0, grid, planes)


def build_initial(cfg: RunConfig, grid: SpectralGrid) -> SimState:
    """Construct the configured initial state; the result is finite, its
    squares are finite, and it passes the positivity report, or the config
    is at fault and a `ConfigError` is raised: a huge `amplitude` or `rho0`
    can overflow the construction or the squares, and a small `rho0` against
    `stress_amplitude` leaves `random_admissible` too thin a determinant
    margin to survive dealiasing.  A snapshot that fails the construction
    invariants is a `ConfigError`; a built-in preset that does is an
    internal bug."""
    # An overflow while building or in the positivity report shows up as a
    # non-finite value, which is reported below as one config error rather
    # than as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.preset == "equilibrium":
            state = _uniform_state(grid, cfg.rho0)
        elif cfg.preset == "taylor_green":
            state = _taylor_green_state(grid, cfg.amplitude)
        elif cfg.preset == "random_admissible":
            state = _random_admissible_state(grid, cfg)
        elif cfg.preset.startswith("snapshot:"):
            from .snapshots import read_snapshot

            state = read_snapshot(cfg.preset.split(":", 1)[1], grid)
        else:
            raise ConfigError(f"unknown preset {cfg.preset!r}")

    peak = float(np.max([np.max(np.abs(p)) for p in state.planes]))
    if not math.isfinite(peak):
        raise ConfigError(f"preset {cfg.preset!r} produced a non-finite field value")
    # The norms and the quadratic terms square field values and weight
    # them by up to |k|^4.
    if peak * max(1.0, float(np.max(grid.k_sq))) > _SQUARES_LIMIT:
        raise ConfigError(f"preset {cfg.preset!r} produced a field value of {peak:.3g}, "
                          f"too large for its squares to be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        report = positivity_report(state, tol=1e-10)
    if not report.passed:
        hint = (" (raise rho0 or lower stress_amplitude)"
                if cfg.preset == "random_admissible" else "")
        raise ConfigError(
            f"preset {cfg.preset!r} produced an inadmissible state "
            f"(min gamma {report.min_gamma:.3e}, min rho {report.min_rho:.3e}){hint}"
        )
    try:
        state.validate()
    except ValueError as exc:
        if cfg.preset.startswith("snapshot:"):
            raise ConfigError(f"preset {cfg.preset!r}: {exc}") from exc
        raise
    return state
