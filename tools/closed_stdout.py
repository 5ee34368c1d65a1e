"""The exit of every script under `tools/`: `run(main, *args)`.

A script whose stdout reader has gone, as under `| head -1`, ends with
exit 1 and no traceback instead of a `BrokenPipeError`.
"""

from __future__ import annotations

import os
import sys


def run(main, *args) -> None:
    """sys.exit(main(*args)), flushing stdout before the exit.  A write to a
    closed stdout exits 1 with stdout pointed at the null device, so that
    the interpreter's own flush at exit does not fail again."""
    try:
        code = main(*args)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
