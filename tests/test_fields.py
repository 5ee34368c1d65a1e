import warnings

import numpy as np
import pytest

from oldb2d import (
    PhysParams,
    SimState,
    StressField,
    gamma_field,
    make_grid,
    matrix_from_stress,
    min_eigenvalue,
    norms,
    scalar_field,
    stress_from_matrix,
    vector_field,
)
from oldb2d.checks import band_limited_admissible_state

from oracles import eig_min_scan, quad_integral

TWO_PI = 2.0 * np.pi


def const(grid, value):
    return scalar_field(grid, np.full((grid.n, grid.n), float(value)))


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


class TestStressConversion:
    def test_identity_matrix(self, grid32):
        s = stress_from_matrix(const(grid32, 1), const(grid32, 0), const(grid32, 1))
        assert np.all(s.a.values == 0.0)
        assert np.all(s.b.values == 0.0)
        assert np.all(s.c.values == 2.0)

    def test_anisotropic_and_determinant(self, grid32):
        s = stress_from_matrix(const(grid32, 2), const(grid32, 0), const(grid32, 1))
        assert np.all(s.a.values == 0.5)
        assert np.all(s.b.values == 0.0)
        assert np.all(s.c.values == 3.0)
        det = 0.25 * s.c.values**2 - s.a.values**2 - s.b.values**2
        assert np.allclose(det, 2.0, atol=1e-14)  # det of diag(2, 1)

    def test_round_trip(self, grid32):
        rng = np.random.default_rng(0)
        m11 = scalar_field(grid32, rng.standard_normal((32, 32)))
        m12 = scalar_field(grid32, rng.standard_normal((32, 32)))
        m22 = scalar_field(grid32, rng.standard_normal((32, 32)))
        back = matrix_from_stress(stress_from_matrix(m11, m12, m22))
        for orig, got in zip((m11, m12, m22), back):
            assert np.max(np.abs(got.values - orig.values)) <= 1e-15

    def test_grid_mismatch(self, grid32):
        other = make_grid(16, TWO_PI)
        with pytest.raises(ValueError):
            stress_from_matrix(const(grid32, 1), const(other, 0), const(grid32, 1))


class TestEigenvalues:
    def test_identity(self, grid32):
        s = StressField(const(grid32, 0), const(grid32, 0), const(grid32, 2))
        assert np.allclose(min_eigenvalue(s).values, 1.0, atol=1e-15)

    def test_rank_one_boundary(self, grid32):
        s = StressField(const(grid32, 3), const(grid32, 4), const(grid32, 10))
        assert np.allclose(min_eigenvalue(s).values, 0.0, atol=1e-14)

    def test_against_dense_eigensolver(self, grid32):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        c = rng.standard_normal((32, 32))
        s = StressField(
            scalar_field(grid32, a), scalar_field(grid32, b), scalar_field(grid32, c)
        )
        oracle = eig_min_scan(a, b, c)
        assert np.max(np.abs(min_eigenvalue(s).values - oracle)) <= 1e-12


class TestGamma:
    def test_isotropic(self, grid32):
        s = StressField(const(grid32, 0), const(grid32, 0), const(grid32, 5))
        assert np.allclose(gamma_field(s).values, 5.0, atol=1e-15)

    def test_boundary(self, grid32):
        s = StressField(const(grid32, 3), const(grid32, 4), const(grid32, 10))
        assert np.allclose(gamma_field(s).values, 0.0, atol=1e-14)

    def test_twice_min_eigenvalue(self, grid32):
        rng = np.random.default_rng(2)
        s = StressField(
            scalar_field(grid32, rng.standard_normal((32, 32))),
            scalar_field(grid32, rng.standard_normal((32, 32))),
            scalar_field(grid32, rng.standard_normal((32, 32))),
        )
        gap = gamma_field(s).values - 2.0 * min_eigenvalue(s).values
        assert np.max(np.abs(gap)) <= 1e-13

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
    def test_divergence_free_enforced(self, grid32):
        x, _ = grid32.nodes()
        bad_u = vector_field(grid32, np.stack([np.sin(x), np.zeros_like(x)]))
        zero = const(grid32, 0)
        state = SimState(0.0, bad_u, StressField(zero, zero, const(grid32, 2)),
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
        SimState(0.0, vector_field(grid, swirl), stress, rho).validate()
        bad = swirl + 1e-9 * np.stack([np.sin(s * x), 0.0 * x])
        with pytest.raises(ValueError, match="divergence"):
            SimState(0.0, vector_field(grid, bad), stress, rho).validate()

    @pytest.mark.parametrize("amplitude", [1e-200, 2.3e-251])
    def test_tiny_divergence_free_velocity_passes(self, grid32, amplitude):
        """|u|'s squares underflow at these amplitudes; the check measures
        |u| on the velocity scaled to a unit peak instead."""
        x, y = grid32.nodes()
        swirl = amplitude * np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
        zero = const(grid32, 0)
        SimState(0.0, vector_field(grid32, swirl), StressField(zero, zero, const(grid32, 2)),
                 const(grid32, 1)).validate()

    def test_negative_rho_rejected(self, grid32):
        zero = const(grid32, 0)
        u = vector_field(grid32, np.zeros((2, 32, 32)))
        state = SimState(0.0, u, StressField(zero, zero, const(grid32, 2)),
                         const(grid32, -1.0))
        with pytest.raises(ValueError, match="rho"):
            state.validate()


class TestNorms:
    def test_constant_fields(self, grid64):
        zero = const(grid64, 0)
        state = SimState(
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
        state = SimState(
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
        swapped = SimState(
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
        for key in rep.values:
            assert rep_swapped[key] == pytest.approx(rep[key], rel=1e-12, abs=1e-13), key

    def test_parseval_consistency(self, grid32):
        state = band_limited_admissible_state(grid32, seed=5, kmax=4)
        rep = norms(state)
        u1, u2 = state.u.values
        direct = np.sqrt(np.mean(u1 * u1 + u2 * u2) * grid32.area)
        assert rep["u_L2"] == pytest.approx(direct, rel=1e-12)
        rho_direct = np.sqrt(np.mean(state.rho.values ** 2) * grid32.area)
        assert rep["rho_L2"] == pytest.approx(rho_direct, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e100])
    def test_l4_norms_without_fourth_powers(self, grid32, scale):
        """u_L4 and sigma_L4 match the direct fourth-power integrals, and
        stay finite, without overflow warnings, where those overflow."""
        state = band_limited_admissible_state(grid32, seed=5, kmax=4)
        u1, u2 = state.u.values
        a, b, c = (f.values for f in (state.stress.a, state.stress.b, state.stress.c))
        frob = 0.5 * c * c + 2.0 * a * a + 2.0 * b * b
        u_l4 = (np.mean((u1 * u1 + u2 * u2) ** 2) * grid32.area) ** 0.25
        sigma_l4 = (np.mean(frob * frob) * grid32.area) ** 0.25
        big = SimState(0.0, vector_field(grid32, scale * state.u.values),
                       StressField(*(scalar_field(grid32, scale * v) for v in (a, b, c))),
                       state.rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = norms(big)
        assert rep["u_L4"] == pytest.approx(scale * u_l4, rel=1e-14)
        assert rep["sigma_L4"] == pytest.approx(scale * sigma_l4, rel=1e-14)

    def test_trace_dominates_deviatoric_part(self, grid32):
        state = band_limited_admissible_state(grid32, seed=6, kmax=4)
        a, b, c = (f.values for f in
                   (state.stress.a, state.stress.b, state.stress.c))
        lhs = 2.0 * np.mean(np.sqrt(a * a + b * b)) * grid32.area
        assert lhs <= np.mean(c) * grid32.area * (1.0 + 1e-12)

    def test_units_annotations(self, grid32):
        state = band_limited_admissible_state(grid32, seed=7, kmax=4)
        rep = norms(state)
        assert rep.unit("u_L2") == "cm^2 sec^-1"
        assert rep.unit("sigma_L1") == "cm^2"
        assert rep.unit("grad_sigma_L2") == "dimensionless"
        assert rep.unit("rho_W12") == "mixed"
        assert all(v >= 0.0 for v in rep.values.values())
