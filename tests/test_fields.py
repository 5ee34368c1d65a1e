import numpy as np
import pytest

from oldb2d import PhysParams, SimState, make_grid, norms, positivity_report
from oldb2d.checks import band_limited_admissible_state
from oldb2d.fields import NORM_UNITS

from conftest import state_of
from oracles import eig_min_scan, quad_integral

TWO_PI = 2.0 * np.pi


def stress_state(grid, a, b, c):
    """A fluid at rest with rho = 1 and stress planes a, b, c (numbers or
    (n, n) arrays)."""
    return state_of(grid, a=a, b=b, c=c, rho=1.0)


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
    """The smaller eigenvalue c/2 - sqrt(a^2 + b^2), which is half the
    `min_gamma` that `positivity_report` minimises."""

    def test_identity(self, grid32):
        rep = positivity_report(stress_state(grid32, 0.0, 0.0, 2.0), 0.0)
        assert rep.min_gamma / 2 == 1.0

    def test_rank_one_boundary(self, grid32):
        rep = positivity_report(stress_state(grid32, 3.0, 4.0, 10.0), 0.0)
        assert abs(rep.min_gamma / 2) <= 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_half_min_gamma_is_the_smallest_eigenvalue(self, grid32, seed):
        """Against a dense eigensolver at every point, to 1e-12 relative."""
        rng = np.random.default_rng(seed)
        a, b, c = rng.standard_normal((3, 32, 32))
        rep = positivity_report(stress_state(grid32, a, b, c), 0.0)
        brute = float(np.min(eig_min_scan(a, b, c)))
        assert abs(rep.min_gamma / 2 - brute) <= 1e-12 * abs(brute)

    def test_halving_is_exact_at_every_scale(self, grid32):
        """min(c - 2 sqrt(a^2 + b^2)) / 2 equals min(c/2 - sqrt(a^2 + b^2))
        bit for bit on random stresses at scales 1e-140 to 1e140, where no
        value is subnormal."""
        rng = np.random.default_rng(9)
        for scale in 10.0 ** np.arange(-140, 141, 20):
            for _ in range(5):
                a, b, c = scale * rng.standard_normal((3, 32, 32))
                rep = positivity_report(stress_state(grid32, a, b, c), 0.0)
                assert rep.min_gamma / 2 == float(np.min(c / 2 - np.sqrt(a * a + b * b)))


class TestGamma:
    """gamma = c - 2 sqrt(a^2 + b^2), the positivity margin that
    `positivity_report` minimises."""

    def test_isotropic(self, grid32):
        rep = positivity_report(stress_state(grid32, 0.0, 0.0, 5.0), 0.0)
        assert rep.min_gamma == 5.0

    def test_boundary(self, grid32):
        rep = positivity_report(stress_state(grid32, 3.0, 4.0, 10.0), 0.0)
        assert abs(rep.min_gamma) <= 1e-14

    def test_twice_smallest_eigenvalue(self, grid32):
        rng = np.random.default_rng(2)
        a, b, c = rng.standard_normal((3, 32, 32))
        rep = positivity_report(stress_state(grid32, a, b, c), 0.0)
        assert abs(rep.min_gamma - 2.0 * float(np.min(eig_min_scan(a, b, c)))) <= 1e-13

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

    def test_divergence_free_enforced(self, grid32):
        x, _ = grid32.nodes()
        bad_u = np.stack([np.sin(x), np.zeros_like(x)])
        state = state_of(grid32, u=bad_u, c=2.0, rho=1.0)
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
        state_of(grid, u=swirl, c=2.0, rho=1.0).validate()
        bad = swirl + 1e-9 * np.stack([np.sin(s * x), 0.0 * x])
        with pytest.raises(ValueError, match="divergence"):
            state_of(grid, u=bad, c=2.0, rho=1.0).validate()

    @pytest.mark.parametrize("amplitude", [1e-200, 2.3e-251])
    def test_tiny_divergence_free_velocity_passes(self, grid32, amplitude):
        """|u|'s squares underflow at these amplitudes; the check measures
        |u| on the velocity scaled to a unit peak instead."""
        x, y = grid32.nodes()
        swirl = amplitude * np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
        state_of(grid32, u=swirl, c=2.0, rho=1.0).validate()

    def test_negative_rho_rejected(self, grid32):
        state = state_of(grid32, c=2.0, rho=-1.0)
        with pytest.raises(ValueError, match="rho"):
            state.validate()


class TestNorms:
    def test_constant_fields(self, grid64):
        state = state_of(grid64, c=2.0, rho=1.0)  # identity matrix
        rep = norms(state)
        area = TWO_PI ** 2
        assert rep["u_L2"] == 0.0
        assert rep["sigma_L1"] == pytest.approx(2.0 * area, rel=1e-14)
        assert rep["rho_L1"] == pytest.approx(area, rel=1e-14)

    def test_shear_velocity_against_quadrature(self, grid64):
        _, y = grid64.nodes()
        state = state_of(grid64, u=np.stack([np.sin(y), np.zeros_like(y)]))
        expected_sq = quad_integral(lambda x, y: np.sin(y) ** 2, TWO_PI)
        assert expected_sq == pytest.approx(2.0 * np.pi ** 2, rel=1e-12)
        assert norms(state)["u_L2"] == pytest.approx(np.sqrt(expected_sq), rel=1e-12)

    def test_axis_swap_symmetry(self, grid32):
        state = band_limited_admissible_state(grid32, seed=4, kmax=4)
        rep = norms(state)

        # Relabel x <-> y: velocity components swap and transpose, a flips
        # sign, b and the scalars transpose.
        u1, u2, a, b, c, rho = state.planes
        swapped = state_of(grid32, u=np.stack([u2.T, u1.T]), a=-a.T, b=b.T, c=c.T,
                           rho=rho.T)
        rep_swapped = norms(swapped)
        for key in rep:
            assert rep_swapped[key] == pytest.approx(rep[key], rel=1e-12, abs=1e-13), key

    def test_parseval_consistency(self, grid32):
        state = band_limited_admissible_state(grid32, seed=5, kmax=4)
        rep = norms(state)
        u1, u2 = state.planes[0:2]
        direct = np.sqrt(np.mean(u1 * u1 + u2 * u2) * grid32.area)
        assert rep["u_L2"] == pytest.approx(direct, rel=1e-12)
        rho_direct = np.sqrt(np.mean(state.planes[5] ** 2) * grid32.area)
        assert rep["rho_L2"] == pytest.approx(rho_direct, rel=1e-12)

    def test_trace_dominates_deviatoric_part(self, grid32):
        state = band_limited_admissible_state(grid32, seed=6, kmax=4)
        a, b, c = state.planes[2:5]
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
