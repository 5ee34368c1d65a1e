"""Regenerate reference.json from the program in this checkout.

    python3 perfbench/make_reference.py

Runs every pool input of every workload, at the benchmark size and the
smoke-test size, and stores per input the final time, per-field mean, RMS
and sample values of final_state.snap and the output file counts (`run`),
or the last iterate's norms (`picard`; the iteration count and field
gaps are stored for information).
Regenerate only when a change to the program is meant to change its
results, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import workloads


def _entry(solver, config_seed: int) -> dict:
    _, rc, stdout, stderr = solver.call(config_seed)
    if rc != 0:
        raise SystemExit(f"{solver.workload.name} seed {config_seed}: exit {rc}\n{stderr}")
    if solver.workload.command == "picard":
        return {"iterations": verify.picard_iterations(stdout),
                "gaps": verify.picard_gaps(stdout),
                "norms": verify.picard_norms(stdout)}
    snap_time, fields = verify.read_snapshot(os.path.join(solver.out_dir, "final_state.snap"))
    return {**verify.summarize(snap_time, fields), **verify.count_outputs(solver.out_dir)}


def main() -> int:
    os.makedirs(workloads.WORK, exist_ok=True)
    reference = {}
    with tempfile.TemporaryDirectory(dir=workloads.WORK) as work_dir:
        for size, table in (("full", workloads.WORKLOADS), ("tiny", workloads.TINY)):
            reference[size] = {}
            for name, workload in table.items():
                solver = harness.Solver(workload, work_dir, None, size)
                reference[size][name] = {
                    str(s): _entry(solver, s) for s in workloads.pool()
                }
                print(f"{size} {name}: {workloads.POOL_SIZE} inputs", file=sys.stderr)
    with open(harness.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    if not workloads.pin_environment():
        raise SystemExit("the program's sources (src/oldb2d) are missing")
    import harness
    import verify

    sys.exit(main())
