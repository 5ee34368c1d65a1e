"""Digest every benchmark pool input's CLI outputs, one line per input.

Runs each workload of `perfbench/workloads.py` (imported, not edited) on
every config seed of its pool through `oldb2d.cli.main`, all in this one
process, against the `src` of the checkout this file sits in.  For each
input it prints

    <workload> seed=<seed> exit=<code> files=<count> sha256=<hex>

where the hash covers the exit code, the stdout with the output directory
replaced by a fixed token, the stderr, and the name and bytes of every file
the solve wrote.  Two checkouts give equal outputs iff their lines match:

    python3 tools/pool_digest.py > a.txt          # in one checkout
    python3 tools/pool_digest.py > b.txt          # in the other
    diff a.txt b.txt

With `--files` each input's line is followed by one line per part of it,

    <workload> seed=<seed> <part> sha256=<hex>

with <part> `stdout`, `stderr` or `file=<name>` for every written file, so
a change that moves only some digits of one file shows which files stayed
identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import closed_stdout  # noqa: E402  (a sibling: a script's directory is on the path)
import workloads  # noqa: E402  (needs the path above)

OUT_TOKEN = "<OUT>"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(workload, config_seed: int, cli, tmp: str) -> list:
    """Run one pool input in a fresh directory under `tmp`; its digest line,
    then one line per part: stdout, stderr and each written file."""
    case = tempfile.mkdtemp(dir=tmp)
    config_path = os.path.join(case, "config.txt")
    out_dir = os.path.join(case, "out")
    os.makedirs(out_dir)
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(config_seed))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(workload.argv(config_path, out_dir))

    h = hashlib.sha256()
    h.update(f"exit={code}\n".encode())
    prefix = f"{workload.name} seed={config_seed}"
    parts = []
    for part, text in (("stdout", stdout.getvalue().replace(out_dir, OUT_TOKEN)),
                       ("stderr", stderr.getvalue())):
        h.update(len(text).to_bytes(8, "little") + text.encode())
        parts.append(f"{prefix} {part} sha256={sha256(text.encode())}")
    names = sorted(os.listdir(out_dir))
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        parts.append(f"{prefix} file={name} sha256={sha256(data)}")
    return [f"{prefix} exit={code} files={len(names)} sha256={h.hexdigest()}"] + parts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", action="store_true",
                        help="also print one hash per stdout, stderr and written file")
    args = parser.parse_args(argv)
    if not workloads.pin_environment():
        print(f"no program sources under {workloads.SRC}", file=sys.stderr)
        return 2
    from oldb2d import cli

    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS.values():
            for config_seed in workloads.pool():
                lines = digest(workload, config_seed, cli, tmp)
                print("\n".join(lines if args.files else lines[:1]), flush=True)
    return 0


if __name__ == "__main__":
    closed_stdout.run(main)
