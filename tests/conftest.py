import numpy as np
import pytest

from oldb2d import SimState, make_grid

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
