"""Traced peak memory of building the initial state and of one cold solve,
at a benchmark workload's config, and the process's peak RSS.

    python3 tools/peak_memory.py [--workload W] [--seed S]

In one fresh process it takes the config of workload W of
`perfbench/workloads.py` (imported, not edited; `run-large`, n=256, by
default; also `run-monitored` and `picard-compare`) with config seed S
(default 0) and traces two things in turn: `config.build_initial` on that
config, and then one cold solve, the workload's `oldb2d run` or
`oldb2d picard` through `cli.main` as the benchmark calls it, with its
outputs written to a temporary directory.  Nothing is held from an
earlier solve, so the integrating-factor memo is allocated inside the
traced solve.  It prints the `tracemalloc` peak of each in MiB and in
packed units (one full-width (6, n, n//2+1) complex half-spectrum state,
3.02 MiB at n=256), then this process's high-water RSS (`VmHWM`, Linux
only), which tracing itself raises.  Last it prints the VmHWM of the same
cold solve run untraced in a fresh child process, `perfbench/probe.py`,
which is the number the benchmark's `peak_rss_mb` reads.  Informational:
it gates nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import closed_stdout  # noqa: E402  (a sibling: a script's directory is on the path)
import workloads  # noqa: E402  (needs the path above)

MIB = 1 << 20


def traced_peak(fn, *args):
    """fn(*args) under `tracemalloc`; (result, peak bytes allocated)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def vm_hwm_kib():
    """The process's high-water RSS in KiB, or None where /proc has none."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def untraced_hwm_kib(workload, seed: int):
    """The VmHWM in KiB of one cold solve of `workload` at config seed
    `seed`, run untraced by `perfbench/probe.py` in a fresh process, or
    None if the probe fails."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "probe.py"),
             "--workload", workload.name, "--config-seed", str(seed), "--work-dir", tmp,
             "--spawned-at", repr(time.monotonic())],
            capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])["rss_kib"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default="run-large",
                        help="benchmark workload whose config is solved (default run-large)")
    parser.add_argument("--seed", type=int, default=0, help="config seed (default 0)")
    args = parser.parse_args(argv)
    if not workloads.pin_environment():
        print(f"no program sources under {workloads.SRC}", file=sys.stderr)
        return 2
    import numpy.random  # noqa: F401  (lazily imported by the build; not traced)

    from oldb2d import cli
    from oldb2d.config import build_initial, parse_config
    from oldb2d.spectral import make_grid

    workload = workloads.get(args.workload)
    text = workload.config_text(args.seed)
    cfg = parse_config(text)
    unit = 6 * cfg.n * (cfg.n // 2 + 1) * 16
    _, build_peak = traced_peak(build_initial, cfg, make_grid(cfg.n, cfg.length))
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.txt")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()):
            code, run_peak = traced_peak(cli.main,
                                         workload.argv(config_path, os.path.join(tmp, "out")))
    if code != 0:
        print(f"the solve exited {code}", file=sys.stderr)
        return 1

    print(f"{workload.name} n={cfg.n} seed={args.seed}; packed unit {unit / MIB:.2f} MiB")
    for name, peak in (("build_initial", build_peak), ("cold solve", run_peak)):
        print(f"{name:14s} traced peak {peak / MIB:7.2f} MiB  {peak / unit:5.2f} units")
    for name, hwm in (("VmHWM traced", vm_hwm_kib()),
                      ("VmHWM untraced", untraced_hwm_kib(workload, args.seed))):
        print(f"{name:14s} {'n/a' if hwm is None else f'{hwm / 1024:.2f} MiB'}")
    return 0


if __name__ == "__main__":
    closed_stdout.run(main)
