"""Fresh-process probe: set-up time and the peak RSS of one solve.

    python3 perfbench/probe.py --workload NAME --config-seed S --work-dir DIR \
        --spawned-at T [--tiny]

T is the parent's `time.monotonic()` just before it spawned this process
(CLOCK_MONOTONIC is shared by all processes on Linux).  Set-up time runs
from T until `import oldb2d`, config parsing, `make_grid` and
`build_initial` have finished.  Then one verified solve runs, and the last
line printed is JSON with the set-up time, the peak RSS and any
verification errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import workloads


def peak_rss_kib() -> int:
    """High-water RSS of this process's own address space (VmHWM).  Unlike
    `ru_maxrss`, it does not carry over the spawning parent's peak across
    exec, which would floor the value at the parent's size."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config-seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.get(args.workload, args.tiny)

    if not workloads.pin_environment():
        return 2
    import oldb2d  # noqa: F401  (the import is part of set-up)
    from oldb2d.config import build_initial, parse_config
    from oldb2d.spectral import make_grid

    cfg = parse_config(workload.config_text(args.config_seed))
    build_initial(cfg, make_grid(cfg.n, cfg.length))
    setup_s = time.monotonic() - args.spawned_at

    import harness

    solver = harness.Solver(workload, args.work_dir, harness.load_reference(),
                            "tiny" if args.tiny else "full")
    result = solver.solve(args.config_seed)
    print(json.dumps({"setup_s": setup_s, "rss_kib": peak_rss_kib(),
                      "errors": result.errors}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
