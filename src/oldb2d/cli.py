"""Command-line entry points: run, picard, check, bounds.

`run`, `picard` and `bounds` read the problem from `--config`; `check`
takes no arguments and runs the invariant suite on the fixed problems of
`checks`.

Exit codes: 0 success, 1 monitor violation (or a failed energy-budget
gate, or fixed-point divergence), 2 configuration error, 3 numerical
failure (NaN or overflow), 4 output error: stdout or stderr could not be
written (a closed pipe, say), which replaces any other code, since output
was lost.  A non-zero exit prints one line on stderr, if stderr can be
written, and never a traceback.  Bad arguments are a configuration error,
and so is a path named in the arguments or the config that cannot be
opened or written (missing, a directory, unreadable), or a problem whose
arrays the machine refuses to allocate (a `MemoryError`).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import replace

from . import diagnostics, picard, snapshots
from .config import ConfigError, build_initial, load_config
from .integrate import MonitorViolation, run
from .spectral import make_grid

EXIT_OK = 0
EXIT_MONITOR = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_OUTPUT = 4


@contextlib.contextmanager
def _paths():
    """An `OSError` raised inside opens or writes a named path: a config
    error.  Outside, an `OSError` can only be a failed write to stdout or
    stderr."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    """Bad arguments are a config error, with one stderr line and no usage
    block; its subparsers are of this class too."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oldb2d",
        description="Pseudo-spectral 2D diffusive Oldroyd-B solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate the configured problem to t_end")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default=".")

    p_pic = sub.add_parser("picard", help="solve the mild formulation by iteration")
    p_pic.add_argument("--config", required=True)
    p_pic.add_argument("--t0", required=True, type=float)
    p_pic.add_argument("--nodes", type=int, default=65)
    p_pic.add_argument("--max-iter", type=int, default=30)
    p_pic.add_argument("--tol", type=float, default=1e-10)
    p_pic.add_argument("--compare", action="store_true",
                       help="also run the time stepper and report field gaps")

    sub.add_parser("check", help="run the invariant/property suite on its fixed problems")

    p_bnd = sub.add_parser("bounds", help="print the a priori bound ledger")
    p_bnd.add_argument("--config", required=True)
    p_bnd.add_argument("--traj", default=None,
                       help="time-series CSV from a previous run to check against")
    return parser


def _setup(args):
    """The config and the initial state that `args` name.  An initial max c
    above `c_ceiling` is a config error: the `overflow` monitor would stop
    the run at its first step with nothing overflowed."""
    with _paths():
        cfg = load_config(args.config)
        initial = build_initial(cfg, make_grid(cfg.n, cfg.length))
    max_c, ceiling = float(initial.planes[4].max()), cfg.monitors.c_ceiling
    if max_c > ceiling:
        raise ConfigError(f"the initial max c {max_c!r} exceeds c_ceiling {ceiling!r}")
    return cfg, initial


def _horizon(cfg, initial) -> float:
    """The duration t_end - (initial time) of the configured run: the
    horizon of its a priori ledger, as the system is autonomous.  A t_end
    that is not after the initial time is a config error."""
    t_end = cfg.control.t_end
    if not initial.time < t_end:
        raise ConfigError(f"t_end {t_end:g} is not after the initial time {initial.time:g}")
    return t_end - initial.time


def _cmd_run(args) -> int:
    cfg, initial = _setup(args)
    t_end = cfg.control.t_end
    horizon = _horizon(cfg, initial)
    for t_snap in cfg.control.snapshot_times:
        if not initial.time < t_snap <= t_end:
            raise ConfigError(f"snapshot_times entry {t_snap:g} is outside (initial time "
                              f"{initial.time:g}, t_end {t_end:g}]")
    series_path = os.path.join(args.out_dir, "timeseries.csv")
    final_path = os.path.join(args.out_dir, "final_state.snap")

    def snapshot_path(t_snap):
        return os.path.join(args.out_dir, f"snapshot_t{t_snap:.6g}.snap")

    # Every file this run may write is removed first, so that a failed run
    # leaves no earlier run's output under its names.
    with _paths():
        os.makedirs(args.out_dir, exist_ok=True)
        for path in [series_path, final_path,
                     *map(snapshot_path, cfg.control.snapshot_times)]:
            if os.path.exists(path):
                os.remove(path)

    records = []

    def write_record(record):
        snapshots.append_timeseries(record, series_path)
        records.append(record)

    def write_snapshot(t_snap, state):
        snapshots.write_snapshot(state, snapshot_path(t_snap))

    # The ledger reads only the initial state, so it is taken first, and
    # `run` gets the one reference to that state, which it lets go of once
    # it has packed it.  A monitor violation leaves the rows and snapshots
    # of the states accepted before it, and no final state.
    ledger = diagnostics.apriori_ledger(initial, cfg.params, horizon, cfg.constant_c)
    states = [initial]
    del initial
    with _paths():
        final = run(states.pop(), cfg.params, cfg.control, cfg.monitors,
                    on_record=write_record, on_snapshot=write_snapshot)
        snapshots.write_snapshot(final, final_path)

    rows = diagnostics.bound_check(diagnostics.series(records), ledger, cfg.params)
    last = records[-1]
    print(f"run complete: t={last.time:.6g}, energy={last.energy:.9g}, "
          f"min gamma={last.min_gamma:.3e}")
    code = _print_rows(rows)
    print(f"wrote {series_path}")
    return code


def _cmd_picard(args) -> int:
    cfg, initial = _setup(args)
    try:
        pcfg = picard.PicardConfig(t0=args.t0, n_time_nodes=args.nodes,
                                   max_iter=args.max_iter, tol=args.tol)
        dt_cap = args.t0 / 50.0
        ctl = replace(cfg.control, dt_min=min(cfg.control.dt_min, 1e-12, dt_cap),
                      dt_max=min(cfg.control.dt_max, dt_cap), t_end=args.t0,
                      output_every=10 ** 9, snapshot_times=()) if args.compare else None
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    traj, hist = picard.picard_iterate(initial, cfg.params, pcfg)
    print(f"converged in {len(hist.diffs)} iterations")
    print("iter  |u|_X            |sigma|_Y        |rho|_Z          diff")
    for i in range(len(hist.u_norms)):
        diff = f"{hist.diffs[i - 1]:.3e}" if 1 <= i <= len(hist.diffs) else "-"
        print(f"{i:>4}  {hist.u_norms[i]:<15.9g}  {hist.sigma_norms[i]:<15.9g}  "
              f"{hist.rho_norms[i]:<15.9g}  {diff}")
    if len(hist.diffs) >= 3:
        print(f"contraction estimate: {picard.contraction_estimate(hist):.4f}")

    if args.compare:
        # The mild path spans t0 from the initial state, whatever its time;
        # the system is autonomous, so the stepper starts at t = 0.
        stepped = run(replace(initial, time=0.0), cfg.params, ctl, cfg.monitors)
        gaps = picard.stepper_gaps(traj.state(pcfg.n_time_nodes - 1), stepped)
        print("agreement with the time stepper at t0 (relative L2):")
        for name, gap in gaps.items():
            print(f"  {name:>3}: {gap:.3e}")
    return EXIT_OK


def _cmd_check(args) -> int:
    from .checks import run_checks

    results = run_checks()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_MONITOR


def _cmd_bounds(args) -> int:
    cfg, initial = _setup(args)
    ledger = diagnostics.apriori_ledger(initial, cfg.params, _horizon(cfg, initial),
                                        cfg.constant_c)
    print(f"a priori bound ledger (T={ledger.horizon:g}, C={ledger.constant_c:g}):")
    for name, entry in ledger.entries().items():
        flag = "  [overflowed]" if entry.overflowed else ""
        print(f"  {name:<3} = {entry.value:<22.12g} [{entry.units}]{flag}")

    if args.traj:
        with _paths():
            series = snapshots.read_timeseries(args.traj)
        if not len(series["time"]):
            raise ConfigError("time series has no rows")
        return _print_rows(diagnostics.bound_check(series, ledger, cfg.params))
    return EXIT_OK


def _print_rows(rows) -> int:
    """Print `bound_check`'s rows, R0 as the energy budget gate and R1..R5
    as ratios, each value to 17 significant digits; a failed gate is
    reported on stderr, as every other non-zero exit is."""
    r0 = rows[0]
    print(f"energy budget gate: observed {r0.observed:.17g} <= R0 {r0.bound:.17g} "
          f"-> {'PASS' if r0.passed else 'FAIL'}")
    for row in rows[1:]:
        print(f"{row.name} ratio: {row.ratio:.3e} (observed {row.observed:.17g}, "
              f"{row.name} {row.bound:.17g})")
    if r0.passed:
        return EXIT_OK
    print(f"energy budget gate failed: observed {r0.observed:.17g} > R0 {r0.bound:.17g}",
          file=sys.stderr)
    return EXIT_MONITOR


def main(argv=None) -> int:
    handlers = {
        "run": _cmd_run,
        "picard": _cmd_picard,
        "check": _cmd_check,
        "bounds": _cmd_bounds,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SystemExit:  # -h, after argparse printed the help
        return EXIT_OK
    except (ConfigError, snapshots.SnapshotFormatError) as exc:
        return _report(EXIT_CONFIG, f"config error: {exc}")
    except MemoryError as exc:  # a grid or path too large for this machine
        return _report(EXIT_CONFIG, f"config error: {str(exc) or 'out of memory'}")
    except MonitorViolation as exc:
        return _report(EXIT_NUMERICAL if exc.kind in ("nan", "overflow") else EXIT_MONITOR,
                       f"monitor violation: {exc}")
    except picard.PicardDivergenceError as exc:
        return _report(EXIT_MONITOR, f"fixed-point divergence: {exc}")
    except OSError as exc:  # stdout or stderr: every named path is in `_paths`
        return _report(EXIT_OUTPUT, f"output error: {exc}")


def _report(code: int, line: str) -> int:
    """Print a failed exit's one stderr line; a stderr that cannot be
    written makes it an output error."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        return EXIT_OUTPUT
    return code


def console_main() -> None:
    """The `oldb2d` script: `main`, then a flush of the buffered stdout,
    whose failure is an output error too (with no second stderr line after
    a failed exit's first).  After an output error both streams point at
    the null device, so that the interpreter's own flush at exit does not
    fail again."""
    code = main()
    if code != EXIT_OUTPUT:
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError as exc:
            code = _report(EXIT_OUTPUT, f"output error: {exc}") if code == EXIT_OK \
                else EXIT_OUTPUT
    if code == EXIT_OUTPUT:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
    sys.exit(code)


if __name__ == "__main__":
    console_main()
