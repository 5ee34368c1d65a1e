"""Size the difference between two state snapshots, plane by plane.

    python3 tools/snap_diff.py A B

Reads both files with `oldb2d.snapshots.read_snapshot`, on the grid named
in B's header, and prints one line per plane of `fields.PLANES`,

    <plane> max|a-b|/rms(b) <value>

then the largest of them, and the two snapshot times when they differ.
A change that is not byte-identical is sized by these values: rounding
moves a plane by a few 1e-16 of its root mean square.  A plane whose RMS
is zero is measured against 1.  Exits 2 when a file cannot be read or
the grids differ, else 0: it gates nothing.
"""

from __future__ import annotations

import argparse
import os
import sys

import closed_stdout  # a sibling: a script's directory is on the path
import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from oldb2d import snapshots  # noqa: E402  (needs the path above)
from oldb2d.fields import PLANES  # noqa: E402
from oldb2d.spectral import make_grid  # noqa: E402


def relative_moves(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |a - b| / RMS(b) per plane of two (planes, n, n) arrays; a plane
    of `b` whose RMS is zero is measured against 1."""
    rms = np.sqrt(np.mean(b * b, axis=(-2, -1)))
    return np.max(np.abs(a - b), axis=(-2, -1)) / np.where(rms > 0.0, rms, 1.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="snapshot to measure")
    parser.add_argument("b", help="snapshot measured against")
    args = parser.parse_args(argv)
    try:
        with open(args.b, "rb") as fh:
            header = fh.read(snapshots._HEADER.size)
        if len(header) < snapshots._HEADER.size:
            raise snapshots.SnapshotFormatError("truncated snapshot: header incomplete")
        _, _, n, length, _, _ = snapshots._HEADER.unpack(header)
        grid = make_grid(n, length)
        a, b = (snapshots.read_snapshot(path, grid) for path in (args.a, args.b))
    except (OSError, ValueError) as exc:
        print(f"snap_diff: {exc}", file=sys.stderr)
        return 2

    moves = relative_moves(a.planes, b.planes)
    for name, move in zip(PLANES, moves):
        print(f"{name:4s} max|a-b|/rms(b) {move:.3e}")
    print(f"max  max|a-b|/rms(b) {moves.max():.3e}")
    if a.time != b.time:
        print(f"time a={a.time!r} b={b.time!r}")
    return 0


if __name__ == "__main__":
    closed_stdout.run(main)
