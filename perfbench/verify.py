"""Output verification for one solve.

The snapshot reader here is independent of `oldb2d.snapshots`, so a fault
shared by the program's writer and reader cannot hide itself.  Every check
returns a list of failure messages; an empty list means the solve passed.
"""

from __future__ import annotations

import os
import re
import struct

import numpy as np

FIELDS = ("u1", "u2", "a", "b", "c", "rho")
_HEADER = struct.Struct("<8sIIddI")

REF_RTOL = 1e-8
"""Reference values must match to this share of the field's RMS (floored at
1e-3): loose enough for a reordered sum or another FFT backend, tight
enough to catch any change to the discretisation."""
RHO_RTOL = 1e-10
"""int(rho) is conserved to rounding by the divergence-free transport."""
PICARD_GAP_TOL = 1e-5
"""Per-field relative L2 gap between the mild solution and the stepper
(acceptance criterion 7)."""
PICARD_NORM_RTOL = 1e-7
"""The last iterate's printed norms (9 significant digits) must match the
reference to this share; one iteration more or less moves them by far less."""

_GATE = re.compile(r"^energy budget gate: .* -> (PASS|FAIL)$", re.M)
_CONVERGED = re.compile(r"^converged in (\d+) iterations$", re.M)
_GAP = re.compile(r"^\s*(u|a|b|c|rho): ([0-9.eE+-]+|nan|inf)$", re.M)
_NORM_ROW = re.compile(r"^\s*\d+\s+(\S+)\s+(\S+)\s+(\S+)\s+\S+$", re.M)


def read_snapshot(path) -> tuple:
    """(time, {field: (n, n) float64}) from the documented binary layout."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, _version, n, _length, time, count = _HEADER.unpack_from(blob, 0)
    if magic != b"OLDB2D01":
        raise ValueError(f"bad magic {magic!r}")
    offset = _HEADER.size
    fields = {}
    for _ in range(count):
        name_len = blob[offset]
        name = blob[offset + 1:offset + 1 + name_len].decode("ascii")
        offset += 1 + name_len
        fields[name] = np.frombuffer(blob, "<f8", n * n, offset).reshape(n, n)
        offset += 8 * n * n
    if offset != len(blob):
        raise ValueError("trailing bytes after the last field")
    return time, fields


def sample_points(n: int) -> list:
    return [(0, 0), (n // 3, n // 5), (n // 2, n - 1), (n - 1, n // 7),
            (n // 4, n // 2), (2 * n // 3, 3 * n // 4)]


def summarize(time: float, fields: dict) -> dict:
    """The values stored per input in reference.json."""
    n = fields["rho"].shape[0]
    points = sample_points(n)
    return {
        "time": time,
        "fields": {
            name: {
                "mean": float(np.mean(fields[name])),
                "rms": float(np.sqrt(np.mean(fields[name] ** 2))),
                "samples": [float(fields[name][i, j]) for i, j in points],
            }
            for name in FIELDS
        },
    }


def count_outputs(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "timeseries.csv"), encoding="utf-8") as fh:
        rows = sum(1 for line in fh if line.strip()) - 1
    snaps = sum(1 for name in os.listdir(out_dir) if name.endswith(".snap"))
    return {"rows": rows, "snapshots": snaps}


def verify_run(rc: int, stdout: str, out_dir: str, ref: dict,
               initial_rho_mean: float) -> list:
    errors = []
    if rc != 0:
        errors.append(f"exit code {rc}")
    gate = _GATE.findall(stdout)
    if gate != ["PASS"]:
        errors.append(f"energy budget gate line missing or not PASS: {gate}")
    try:
        time, fields = read_snapshot(os.path.join(out_dir, "final_state.snap"))
        counts = count_outputs(out_dir)
    except (OSError, ValueError, struct.error) as exc:
        return errors + [f"unreadable output: {exc}"]

    if counts != {"rows": ref["rows"], "snapshots": ref["snapshots"]}:
        errors.append(f"output counts {counts} differ from reference "
                      f"rows={ref['rows']}, snapshots={ref['snapshots']}")
    if abs(time - ref["time"]) > 1e-12 * max(1.0, abs(ref["time"])):
        errors.append(f"final time {time!r} != reference {ref['time']!r}")
    got = summarize(time, fields)["fields"]
    for name in FIELDS:
        want = ref["fields"][name]
        tol = REF_RTOL * max(want["rms"], 1e-3)
        pairs = [(want["mean"], got[name]["mean"]), (want["rms"], got[name]["rms"])]
        pairs += list(zip(want["samples"], got[name]["samples"]))
        worst = max(abs(w - g) for w, g in pairs)
        if not worst <= tol:
            errors.append(f"field {name} differs from reference by {worst:.3e} "
                          f"(tolerance {tol:.3e})")

    a, b, c = fields["a"], fields["b"], fields["c"]
    min_gamma = float(np.min(c - 2.0 * np.sqrt(a * a + b * b)))
    if not min_gamma >= 0.0:
        errors.append(f"final min gamma {min_gamma:.3e} < 0")
    rho_mean = float(np.mean(fields["rho"]))
    if not abs(rho_mean - initial_rho_mean) <= RHO_RTOL * abs(initial_rho_mean):
        errors.append(f"int(rho) not conserved: mean {rho_mean!r} vs initial "
                      f"{initial_rho_mean!r}")
    return errors


def picard_gaps(stdout: str) -> dict:
    return {name: float(value) for name, value in _GAP.findall(stdout)}


def picard_iterations(stdout: str):
    found = _CONVERGED.findall(stdout)
    return int(found[0]) if len(found) == 1 else None


def picard_norms(stdout: str) -> list:
    """|u|_X, |sigma|_Y, |rho|_Z of the last iterate in the history table."""
    rows = _NORM_ROW.findall(stdout)
    return [float(v) for v in rows[-1]] if rows else []


def verify_picard(rc: int, stdout: str, ref: dict) -> list:
    errors = []
    if rc != 0:
        errors.append(f"exit code {rc}")
    if picard_iterations(stdout) is None:
        errors.append("no 'converged in N iterations' line")
    gaps = picard_gaps(stdout)
    if set(gaps) != {"u", "a", "b", "c", "rho"}:
        errors.append(f"field gaps missing: got {sorted(gaps)}")
    for name, gap in gaps.items():
        if not gap <= PICARD_GAP_TOL:
            errors.append(f"gap {name} = {gap:.3e} exceeds {PICARD_GAP_TOL:g}")
    norms = picard_norms(stdout)
    if len(norms) != 3 or not all(abs(g - w) <= PICARD_NORM_RTOL * abs(w)
                                  for g, w in zip(norms, ref["norms"])):
        errors.append(f"last-iterate norms {norms} differ from reference {ref['norms']}")
    return errors
