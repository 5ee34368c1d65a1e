"""The scripts under `tools/` on a stdout whose reader has gone, as under
`| head -1`: each exits non-zero with nothing on stderr, no traceback."""

import os
import subprocess
import sys

import numpy as np
import pytest

from oldb2d import make_grid
from oldb2d.snapshots import write_snapshot

from conftest import state_of

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def on_closed_stdout(argv) -> subprocess.CompletedProcess:
    """Run a script of `tools/` with its stdout on a pipe whose read end is
    closed before the script starts, so that its first write fails."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, os.path.join(TOOLS, argv[0]), *argv[1:]],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=300)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", [
    ["code_lines.py", os.path.join(ROOT, "src", "oldb2d")],
    ["peak_memory.py", "--workload", "run-monitored"],
    ["pool_digest.py"],
], ids=lambda argv: argv[0])
def test_closed_stdout(argv):
    done = on_closed_stdout(argv)
    assert done.returncode == 1
    assert done.stderr == ""


def test_snap_diff_on_closed_stdout(tmp_path):
    grid = make_grid(8, 2.0 * np.pi)
    for name, c in (("a", 1.0), ("b", 2.0)):
        write_snapshot(state_of(grid, c=c), tmp_path / name)
    done = on_closed_stdout(["snap_diff.py", str(tmp_path / "a"), str(tmp_path / "b")])
    assert done.returncode == 1
    assert done.stderr == ""
