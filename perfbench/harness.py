"""One verified solve: a timed `oldb2d.cli.main` call plus output checks.

Import after `workloads.pin_environment()`, which puts the program on the
import path and pins its thread pools.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
import traceback
from dataclasses import dataclass

import numpy as np

from oldb2d import cli
from oldb2d.config import build_initial, parse_config
from oldb2d.spectral import make_grid

import verify
import workloads

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class SolveResult:
    config_seed: int
    seconds: float
    rc: int | None
    stdout: str
    errors: list

    @property
    def returned(self) -> bool:
        """The call returned, so its time counts even if verification failed."""
        return self.rc is not None


class Solver:
    """Runs one workload's inputs through the CLI in this process.

    `solve` times only the `cli.main` call; cleaning the output directory
    and verifying the outputs happen outside the timed region.
    """

    def __init__(self, workload: workloads.Workload, work_dir: str,
                 reference: dict | None, size: str):
        self.workload = workload
        os.makedirs(work_dir, exist_ok=True)
        self.out_dir = os.path.join(work_dir, "out")
        self.configs = workloads.write_configs(workload, work_dir)
        self.reference = None if reference is None else reference[size][workload.name]
        self._rho_means = {}

    def initial_rho_mean(self, config_seed: int) -> float:
        """Mean density of the program's own initial state for this input."""
        if config_seed not in self._rho_means:
            cfg = parse_config(self.workload.config_text(config_seed))
            state = build_initial(cfg, make_grid(cfg.n, cfg.length))
            self._rho_means[config_seed] = float(np.mean(state.rho.values))
        return self._rho_means[config_seed]

    def call(self, config_seed: int):
        """Run the CLI once; returns (seconds, rc, stdout, stderr)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = self.workload.argv(self.configs[config_seed], self.out_dir)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = cli.main(argv)
            seconds = time.perf_counter() - start
        return seconds, rc, out.getvalue(), err.getvalue()

    def solve(self, config_seed: int) -> SolveResult:
        try:
            seconds, rc, stdout, stderr = self.call(config_seed)
        except Exception:  # a raising solve is a failed solve, not a crash
            return SolveResult(config_seed, float("nan"), None, "",
                               [f"raised:\n{traceback.format_exc()}"])
        try:
            errors = self.check(config_seed, rc, stdout)
        except Exception:  # e.g. the program can no longer build the initial state
            errors = [f"verification raised:\n{traceback.format_exc()}"]
        if errors and stderr:
            errors.append(f"stderr: {stderr.strip()}")
        return SolveResult(config_seed, seconds, rc, stdout, errors)

    def check(self, config_seed: int, rc: int, stdout: str) -> list:
        ref = self.reference[str(config_seed)]
        if self.workload.command == "picard":
            return verify.verify_picard(rc, stdout, ref)
        return verify.verify_run(rc, stdout, self.out_dir, ref,
                                 self.initial_rho_mean(config_seed))
