import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from oldb2d import SimState, make_grid, run

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def grid32():
    return make_grid(32, TWO_PI)


@pytest.fixture(scope="session")
def grid64():
    return make_grid(64, TWO_PI)


def state_of(grid, u=0.0, a=0.0, b=0.0, c=0.0, rho=0.0, time=0.0) -> SimState:
    """A state on `grid` whose planes are stacked from the arguments: `u` a
    (2, n, n) velocity pair, each other an (n, n) plane; a number fills its
    plane or planes."""
    planes = np.empty((6, grid.n, grid.n))
    planes[0:2], planes[2], planes[3], planes[4], planes[5] = u, a, b, c, rho
    return SimState(time, grid, planes)


def run_collected(initial, params, ctl, monitors=None) -> SimpleNamespace:
    """`run`, with what it hands out collected: `records`, `snapshots` as
    (requested time, state) pairs, and the `final_state` it returns."""
    records, snapshots = [], []
    final = run(initial, params, ctl, monitors, on_record=records.append,
                on_snapshot=lambda t, state: snapshots.append((t, state)))
    return SimpleNamespace(records=records, snapshots=snapshots, final_state=final)


def in_threads(fn, args, timeout=300.0) -> list:
    """[fn(arg) for arg in args], each call on its own thread, all started
    together behind a barrier, with the interpreter switching threads every
    10 microseconds so that the calls interleave finely; the first
    exception raised is re-raised, and a call still running after
    `timeout` seconds raises TimeoutError."""
    barrier = threading.Barrier(len(args), timeout=timeout)

    def call(arg):
        barrier.wait()
        return fn(arg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(args)) as pool:
            return list(pool.map(call, args, timeout=timeout))
    finally:
        sys.setswitchinterval(interval)
