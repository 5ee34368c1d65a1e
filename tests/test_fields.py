import numpy as np
import pytest

from oldb2d import (
    PhysParams,
    SimState,
    StressField,
    make_grid,
    norms,
    positivity_report,
    scalar_field,
    sim_state,
    vector_field,
)
from oldb2d.checks import band_limited_admissible_state
from oldb2d.fields import NORM_UNITS

from oracles import quad_integral

TWO_PI = 2.0 * np.pi


def const(grid, value):
    return scalar_field(grid, np.full((grid.n, grid.n), float(value)))


def stress_state(grid, a, b, c):
    """A fluid at rest with rho = 1 and stress planes a, b, c (numbers or
    (n, n) arrays)."""
    planes = np.zeros((6, grid.n, grid.n))
    planes[2], planes[3], planes[4], planes[5] = a, b, c, 1.0
    return SimState(0.0, grid, planes)


class TestPhysParams:
    def test_valid(self):
        p = PhysParams(nu=0.01, kappa=0.0, k=1.0, bigK=1.0)
        assert p.kappa == 0.0

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(nu=0.0, kappa=0.01, k=1.0, bigK=1.0), "nu"),
            (dict(nu=0.01, kappa=-1.0, k=1.0, bigK=1.0), "kappa"),
            (dict(nu=0.01, kappa=0.01, k=0.0, bigK=1.0), "k"),
            (dict(nu=0.01, kappa=0.01, k=1.0, bigK=-2.0), "bigK"),
        ],
    )
    def test_invalid(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            PhysParams(**kwargs)


class TestEigenvalues:
    """The smaller eigenvalue c/2 - sqrt(a^2 + b^2) that `positivity_report`
    minimises."""

    def test_identity(self, grid32):
        rep = positivity_report(stress_state(grid32, 0.0, 0.0, 2.0), 0.0)
        assert rep.min_eig == 1.0

    def test_rank_one_boundary(self, grid32):
        rep = positivity_report(stress_state(grid32, 3.0, 4.0, 10.0), 0.0)
        assert abs(rep.min_eig) <= 1e-14


class TestGamma:
    """gamma = c - 2 sqrt(a^2 + b^2), the positivity margin that
    `positivity_report` minimises."""

    def test_isotropic(self, grid32):
        rep = positivity_report(stress_state(grid32, 0.0, 0.0, 5.0), 0.0)
        assert rep.min_gamma == 5.0

    def test_boundary(self, grid32):
        rep = positivity_report(stress_state(grid32, 3.0, 4.0, 10.0), 0.0)
        assert abs(rep.min_gamma) <= 1e-14

    def test_twice_min_eigenvalue(self, grid32):
        rng = np.random.default_rng(2)
        rep = positivity_report(stress_state(grid32, *rng.standard_normal((3, 32, 32))), 0.0)
        assert abs(rep.min_gamma - 2.0 * rep.min_eig) <= 1e-13

    def test_equivalence_with_determinant_positivity(self, grid32):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal((32, 32))
            b = rng.standard_normal((32, 32))
            c = 2.0 * rng.standard_normal((32, 32))
            gam_ok = c - 2.0 * np.sqrt(a * a + b * b) >= 0
            det_ok = (c >= 0) & (0.25 * c * c - a * a - b * b >= 0)
            assert np.array_equal(gam_ok, det_ok)


class TestSimState:
    @pytest.mark.parametrize("shape,dtype,match", [
        ((5, 32, 32), float, "shape"),
        ((6, 32, 17), float, "shape"),
        ((6, 16, 16), float, "shape"),
        ((6, 32, 32), complex, "float64"),
    ])
    def test_planes_of_the_wrong_shape_or_type_rejected(self, grid32, shape, dtype, match):
        with pytest.raises(ValueError, match=match):
            SimState(0.0, grid32, np.zeros(shape, dtype))

    def test_sim_state_rejects_components_on_different_grids(self, grid32):
        grid16 = make_grid(16, TWO_PI)
        u = vector_field(grid32, np.zeros((2, 32, 32)))
        zero32, zero16 = const(grid32, 0), const(grid16, 0)
        with pytest.raises(ValueError, match="share a grid"):
            sim_state(0.0, u, StressField(zero32, zero32, zero32), zero16)
        with pytest.raises(ValueError, match="share a grid"):
            sim_state(0.0, u, StressField(zero16, zero16, zero16), zero32)

    def test_divergence_free_enforced(self, grid32):
        x, _ = grid32.nodes()
        bad_u = vector_field(grid32, np.stack([np.sin(x), np.zeros_like(x)]))
        zero = const(grid32, 0)
        state = sim_state(0.0, bad_u, StressField(zero, zero, const(grid32, 2)),
                          const(grid32, 1))
        with pytest.raises(ValueError, match="divergence"):
            state.validate()

    @pytest.mark.parametrize("length", [1e-5, TWO_PI, 1e5])
    def test_divergence_check_is_free_of_the_length_unit(self, length):
        """A divergence-free velocity passes at any L, and the same
        velocity with a divergent part fails: the divergence, which scales
        as 1/L, is measured against |u| times 2 pi / L."""
        grid = make_grid(16, length)
        x, y = grid.nodes()
        s = TWO_PI / length
        swirl = np.stack([np.sin(s * x) * np.cos(s * y), -np.cos(s * x) * np.sin(s * y)])
        zero = const(grid, 0)
        stress, rho = StressField(zero, zero, const(grid, 2)), const(grid, 1)
        sim_state(0.0, vector_field(grid, swirl), stress, rho).validate()
        bad = swirl + 1e-9 * np.stack([np.sin(s * x), 0.0 * x])
        with pytest.raises(ValueError, match="divergence"):
            sim_state(0.0, vector_field(grid, bad), stress, rho).validate()

    @pytest.mark.parametrize("amplitude", [1e-200, 2.3e-251])
    def test_tiny_divergence_free_velocity_passes(self, grid32, amplitude):
        """|u|'s squares underflow at these amplitudes; the check measures
        |u| on the velocity scaled to a unit peak instead."""
        x, y = grid32.nodes()
        swirl = amplitude * np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
        zero = const(grid32, 0)
        sim_state(0.0, vector_field(grid32, swirl), StressField(zero, zero, const(grid32, 2)),
                  const(grid32, 1)).validate()

    def test_negative_rho_rejected(self, grid32):
        zero = const(grid32, 0)
        u = vector_field(grid32, np.zeros((2, 32, 32)))
        state = sim_state(0.0, u, StressField(zero, zero, const(grid32, 2)),
                          const(grid32, -1.0))
        with pytest.raises(ValueError, match="rho"):
            state.validate()


class TestNorms:
    def test_constant_fields(self, grid64):
        zero = const(grid64, 0)
        state = sim_state(
            0.0,
            vector_field(grid64, np.zeros((2, 64, 64))),
            StressField(zero, zero, const(grid64, 2)),  # identity matrix
            const(grid64, 1),
        )
        rep = norms(state)
        area = TWO_PI ** 2
        assert rep["u_L2"] == 0.0
        assert rep["sigma_L1"] == pytest.approx(2.0 * area, rel=1e-14)
        assert rep["rho_L1"] == pytest.approx(area, rel=1e-14)

    def test_shear_velocity_against_quadrature(self, grid64):
        _, y = grid64.nodes()
        zero = const(grid64, 0)
        state = sim_state(
            0.0,
            vector_field(grid64, np.stack([np.sin(y), np.zeros_like(y)])),
            StressField(zero, zero, zero),
            zero,
        )
        expected_sq = quad_integral(lambda x, y: np.sin(y) ** 2, TWO_PI)
        assert expected_sq == pytest.approx(2.0 * np.pi ** 2, rel=1e-12)
        assert norms(state)["u_L2"] == pytest.approx(np.sqrt(expected_sq), rel=1e-12)

    def test_axis_swap_symmetry(self, grid32):
        state = band_limited_admissible_state(grid32, seed=4, kmax=4)
        rep = norms(state)

        # Relabel x <-> y: velocity components swap and transpose, a flips
        # sign, b and the scalars transpose.
        swapped = sim_state(
            0.0,
            vector_field(grid32, np.stack([state.u.values[1].T, state.u.values[0].T])),
            StressField(
                scalar_field(grid32, -state.stress.a.values.T),
                scalar_field(grid32, state.stress.b.values.T),
                scalar_field(grid32, state.stress.c.values.T),
            ),
            scalar_field(grid32, state.rho.values.T),
        )
        rep_swapped = norms(swapped)
        for key in rep:
            assert rep_swapped[key] == pytest.approx(rep[key], rel=1e-12, abs=1e-13), key

    def test_parseval_consistency(self, grid32):
        state = band_limited_admissible_state(grid32, seed=5, kmax=4)
        rep = norms(state)
        u1, u2 = state.u.values
        direct = np.sqrt(np.mean(u1 * u1 + u2 * u2) * grid32.area)
        assert rep["u_L2"] == pytest.approx(direct, rel=1e-12)
        rho_direct = np.sqrt(np.mean(state.rho.values ** 2) * grid32.area)
        assert rep["rho_L2"] == pytest.approx(rho_direct, rel=1e-12)

    def test_trace_dominates_deviatoric_part(self, grid32):
        state = band_limited_admissible_state(grid32, seed=6, kmax=4)
        a, b, c = (f.values for f in
                   (state.stress.a, state.stress.b, state.stress.c))
        lhs = 2.0 * np.mean(np.sqrt(a * a + b * b)) * grid32.area
        assert lhs <= np.mean(c) * grid32.area * (1.0 + 1e-12)

    def test_units_annotations(self, grid32):
        state = band_limited_admissible_state(grid32, seed=7, kmax=4)
        rep = norms(state)
        assert rep.keys() == NORM_UNITS.keys()
        assert str(NORM_UNITS["u_L2"]) == "cm^2 sec^-1"
        assert str(NORM_UNITS["sigma_L1"]) == "cm^2"
        assert str(NORM_UNITS["grad_sigma_L2"]) == "dimensionless"
        assert str(NORM_UNITS["rho_W12"]) == "mixed"
        assert all(v >= 0.0 for v in rep.values())
