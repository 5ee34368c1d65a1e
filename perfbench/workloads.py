"""Workload definitions: the CLI command, its config and the input pool.

Every solve is one `oldb2d.cli.main([...])` call on a config file whose
`seed` key is drawn from the workload's input pool.  The pool is fixed so
that each input has stored reference values (reference.json); the
benchmark seed chooses the order in which the pool is visited.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

THREAD_ENV = {
    "OLDB2D_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
"""The single-threaded baseline: the FFT worker pool and any BLAS pool."""

POOL_SIZE = 12
"""Distinct config seeds per workload.  On `run-large` every solve takes a
handful of CFL-limited steps with distinct dt values; cycling through 12
inputs keeps more than 32 distinct dt values between two visits of one
input, so the integrating-factor cache (32 entries) never serves a repeat."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str             # "run" or "picard"
    config: tuple            # (key, value) pairs, without the seed key
    extra_argv: tuple = ()   # arguments after --config (picard only)

    def config_text(self, config_seed: int) -> str:
        lines = [f"{key}={value}" for key, value in self.config]
        lines.append(f"seed={config_seed}")
        return "\n".join(lines) + "\n"

    def setting(self, key):
        return dict(self.config)[key]

    def argv(self, config_path: str, out_dir: str) -> list:
        if self.command == "run":
            return ["run", "--config", config_path, "--out-dir", out_dir]
        return ["picard", "--config", config_path, *self.extra_argv]

    def largest_stack_bytes(self) -> int:
        """Computed size of the largest array stack one solve builds.

        `run`: the 17-plane real stack that `dynamics._terms` transforms back
        (u, the 12 first derivatives and a, b, c), float64.  `picard`: the
        (nodes, 3, n, n) complex128 stress path that `q2_integrand`
        transforms.
        """
        n = int(self.setting("n"))
        if self.command == "run":
            return 17 * n * n * 8
        nodes = int(self.extra_argv[self.extra_argv.index("--nodes") + 1])
        return nodes * 3 * n * n * 16


def _cfg(**kw) -> tuple:
    return tuple(kw.items())


WORKLOADS = {
    "run-large": Workload(
        "run-large", "run",
        _cfg(n=256, preset="random_admissible", amplitude=2.0, t_end=0.03,
             output_every=1000000, kappa=0.01),
    ),
    "run-monitored": Workload(
        "run-monitored", "run",
        _cfg(n=64, preset="random_admissible", amplitude=1.0, t_end=0.2,
             output_every=1, snapshot_times="0.05,0.1,0.15", kappa=0.01),
    ),
    "picard-compare": Workload(
        "picard-compare", "picard",
        _cfg(n=32, preset="random_admissible", amplitude=0.05, kappa=0.01),
        extra_argv=("--t0", "0.05", "--nodes", "33", "--compare"),
    ),
}

# Same commands at a size that solves in milliseconds; used by the smoke tests.
TINY = {
    "run-large": Workload(
        "run-large", "run",
        _cfg(n=32, preset="random_admissible", amplitude=2.0, t_end=0.03,
             output_every=1000000, kappa=0.01),
    ),
    "run-monitored": Workload(
        "run-monitored", "run",
        _cfg(n=16, preset="random_admissible", amplitude=1.0, t_end=0.05,
             output_every=1, snapshot_times="0.02,0.04", kappa=0.01),
    ),
    "picard-compare": Workload(
        "picard-compare", "picard",
        _cfg(n=16, preset="random_admissible", amplitude=0.05, kappa=0.01),
        extra_argv=("--t0", "0.02", "--nodes", "9", "--compare"),
    ),
}


def pin_environment() -> bool:
    """Pin every thread pool to one thread and put the checkout's `src` on
    the import path.  Call before numpy is imported.  Returns whether the
    program's sources are present."""
    os.environ.update(THREAD_ENV)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return os.path.isfile(os.path.join(SRC, "oldb2d", "cli.py"))


def get(name: str, tiny: bool = False) -> Workload:
    return (TINY if tiny else WORKLOADS)[name]


def pool() -> list:
    return list(range(POOL_SIZE))


def input_order(seed: int) -> list:
    """The pool in the order the benchmark seed prescribes."""
    order = pool()
    random.Random(seed).shuffle(order)
    return order


def write_configs(workload: Workload, directory: str) -> dict:
    """One config file per pool input; returns config seed -> path."""
    paths = {}
    for config_seed in pool():
        path = os.path.join(directory, f"{workload.name}-{config_seed}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(workload.config_text(config_seed))
        paths[config_seed] = path
    return paths
