import numpy as np
import pytest

from oldb2d import (
    ddx,
    dealias,
    divergence,
    heat_semigroup,
    laplacian,
    leray_project,
    make_grid,
    scalar_field,
    vector_field,
)
from oldb2d.spectral import irfft2, project, rfft2

import oracles
from oracles import fd_derivative

TWO_PI = 2.0 * np.pi


def band_limited(grid, rng, kmax=None):
    noise = rng.standard_normal((grid.n, grid.n))
    fh = rfft2(noise) * grid.mask
    if kmax is not None:
        ki = np.rint(np.fft.fftfreq(grid.n, 1.0 / grid.n)).astype(int)
        kj = np.arange(grid.n // 2 + 1)
        ki, kj = np.meshgrid(ki, kj, indexing="ij")
        fh *= (np.abs(ki) <= kmax) & (np.abs(kj) <= kmax)
    return scalar_field(grid, irfft2(fh, grid.n))


class TestMakeGrid:
    def test_small_grid_mask(self):
        # n=8: 2/3 of the resolvable 4 truncates to 2; |k| in {3, 4} masked.
        g = make_grid(8, TWO_PI)
        kint = np.rint(np.fft.fftfreq(8, 1.0 / 8)).astype(int)
        ki, kj = np.meshgrid(kint, kint, indexing="ij")
        expected = (np.abs(ki) <= 2) & (np.abs(kj) <= 2)
        # The half spectrum keeps the columns ky = 0..n/2 (fftfreq columns
        # 0..n/2-1 and the Nyquist column, where |ky| = n/2 either way).
        assert np.array_equal(g.mask, expected[:, :5])
        assert g.mask[0, 0]

    def test_mask_boundary_n64(self):
        # Survivors satisfy 3|k| <= n: |k| = 21 is kept, |k| = 22 masked.
        g = make_grid(64, TWO_PI)
        assert g.mask[21, 0]
        assert not g.mask[22, 0]
        assert not g.mask[0, 22]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_grid(7, 1.0)
        with pytest.raises(ValueError):
            make_grid(6, 1.0)
        with pytest.raises(ValueError):
            make_grid(64, 0.0)
        with pytest.raises(ValueError):
            make_grid(64, -1.0)

    def test_roundtrip_identity(self, grid64):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((64, 64))
        back = irfft2(rfft2(f), 64)
        assert np.max(np.abs(back - f)) <= 1e-13 * np.max(np.abs(f))

    def test_zero_mode_is_mean(self, grid32):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((32, 32))
        assert rfft2(f)[0, 0] == pytest.approx(np.mean(f), abs=1e-15)


class TestTwoPassTransforms:
    """The two-pass transforms give the bits of numpy's own 2-D real FFTs,
    on every batch shape the program transforms, with or without the
    in-place inverse pass, into a fresh array or the caller's `out`."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("lead", [(), (6,), (18,), (4, 3, 3)])
    def test_bit_identical_to_numpy_rfft2(self, n, lead):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(lead + (n, n))
        coeffs = rfft2(values)
        assert coeffs.shape == lead + (n, n // 2 + 1)
        assert np.array_equal(coeffs, np.fft.rfft2(values, norm="forward"))

        kept = coeffs.copy()
        back = irfft2(coeffs, n)
        assert np.array_equal(coeffs, kept)  # the default leaves its input
        assert np.array_equal(back, np.fft.irfft2(kept, s=(n, n), norm="forward"))
        out = np.empty(lead + (n, n))
        assert irfft2(kept.copy(), n, out=out) is out
        assert np.array_equal(out, back)
        assert np.array_equal(irfft2(coeffs, n, overwrite_x=True), back)


class TestDdx:
    def test_single_mode(self, grid64):
        x, y = grid64.nodes()
        f = scalar_field(grid64, np.sin(x))
        assert np.max(np.abs(ddx(f, 1).values - np.cos(x))) <= 1e-13

    def test_constant(self, grid32):
        f = scalar_field(grid32, np.full((32, 32), 4.2))
        assert np.max(np.abs(ddx(f, 1).values)) <= 1e-14
        assert np.max(np.abs(ddx(f, 2).values)) <= 1e-14

    def test_against_finite_difference_oracle(self, grid64):
        # d/dy sin(3x)cos(2y) = -2 sin(3x) sin(2y); the 8th-order stencil
        # resolves it to ~1e-9 at this spacing.
        x, y = grid64.nodes()
        vals = np.sin(3 * x) * np.cos(2 * y)
        f = scalar_field(grid64, vals)
        got = ddx(f, 2).values
        oracle = fd_derivative(vals, axis=1, h=grid64.spacing)
        exact = -2.0 * np.sin(3 * x) * np.sin(2 * y)
        assert np.max(np.abs(got - oracle)) <= 1e-8
        assert np.max(np.abs(got - exact)) <= 1e-13

    def test_axis_validation(self, grid32):
        f = scalar_field(grid32, np.zeros((32, 32)))
        with pytest.raises(ValueError):
            ddx(f, 3)


class TestLaplacian:
    def test_eigenfunction(self, grid64):
        # |k|^2 amplifies the transform's rounding noise, so the tolerance
        # is 1e-12 rather than the first-derivative 1e-13.
        x, _ = grid64.nodes()
        f = scalar_field(grid64, np.sin(x))
        assert np.max(np.abs(laplacian(f).values + np.sin(x))) <= 1e-12

    def test_constant(self, grid32):
        f = scalar_field(grid32, np.ones((32, 32)))
        assert np.max(np.abs(laplacian(f).values)) <= 1e-14

    def test_matches_composed_derivatives(self, grid64):
        rng = np.random.default_rng(3)
        f = band_limited(grid64, rng)
        composed = ddx(ddx(f, 1), 1).values + ddx(ddx(f, 2), 2).values
        err = np.max(np.abs(laplacian(f).values - composed))
        assert err <= 1e-12 * max(1.0, np.max(np.abs(f.values)))


class TestDealias:
    def test_low_mode_unchanged(self, grid64):
        x, y = grid64.nodes()
        f = scalar_field(grid64, np.cos(x))
        assert np.max(np.abs(dealias(f).values - f.values)) <= 1e-15

    def test_high_mode_removed(self, grid64):
        x, _ = grid64.nodes()
        f = scalar_field(grid64, np.cos(31 * x))  # mode (n/2 - 1, 0)
        assert np.max(np.abs(dealias(f).values)) <= 1e-13

    def test_idempotent(self, grid64):
        # Masking twice is masking once, to the rounding of a transform pair.
        rng = np.random.default_rng(4)
        f = scalar_field(grid64, rng.standard_normal((64, 64)))
        once = dealias(f)
        twice = dealias(once)
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(twice.values - once.values)) <= 1e-15 * scale
        assert np.max(np.abs(once.coeffs[~grid64.mask])) <= 1e-16 * scale


class TestLerayProjection:
    def test_divergence_free_fixed_point(self, grid64):
        _, y = grid64.nodes()
        v = vector_field(grid64, np.stack([np.sin(y), np.zeros_like(y)]))
        pv = leray_project(v)
        assert np.max(np.abs(pv.values - v.values)) <= 1e-13

    def test_gradient_annihilated(self, grid64):
        x, y = grid64.nodes()
        phi = scalar_field(grid64, np.sin(x) * np.sin(y))
        grad = vector_field(
            grid64, np.stack([ddx(phi, 1).values, ddx(phi, 2).values])
        )
        assert np.max(np.abs(leray_project(grad).values)) <= 1e-13

    def test_idempotent_and_divergence_free(self, grid64):
        rng = np.random.default_rng(5)
        v = vector_field(grid64, rng.standard_normal((2, 64, 64)))
        pv = leray_project(v)
        scale = np.sqrt(np.sum(grid64.weights * np.abs(v.coeffs) ** 2))
        assert np.max(np.abs(divergence(pv).coeffs)) <= 1e-13 * scale
        again = leray_project(pv)
        assert np.max(np.abs(again.coeffs - pv.coeffs)) <= 1e-13 * scale

    def test_batched_in_place_matches_each_node(self, grid32):
        # A (nodes, pair, n, n//2+1) stack, as the Picard map projects it.
        rng = np.random.default_rng(12)
        stack = rfft2(rng.standard_normal((5, 2, 32, 32)))
        given = stack.copy()
        assert project(grid32, stack) is None
        for j in range(len(given)):
            node = given[j].copy()
            project(grid32, node)
            assert np.array_equal(stack[j], node)
        div = grid32.ikx * stack[:, 0] + grid32.iky * stack[:, 1]
        scale = np.sqrt(np.sum(grid32.weights * np.abs(given) ** 2))
        assert np.max(np.abs(div)) <= 1e-13 * scale
        # The pair of a packed (planes, n, n//2+1) array is its first two planes.
        packed = rfft2(rng.standard_normal((6, 32, 32)))
        pair, rest = packed[0:2].copy(), packed[2:].copy()
        project(grid32, packed)
        project(grid32, pair)
        assert np.array_equal(packed[0:2], pair)
        assert np.array_equal(packed[2:], rest)


class TestHeatSemigroup:
    def test_identity_at_zero_time(self, grid32):
        rng = np.random.default_rng(6)
        f = scalar_field(grid32, rng.standard_normal((32, 32)))
        real_gap = np.max(np.abs(heat_semigroup(f, 0.5, 1.0, 0.0).values - f.values))
        assert real_gap <= 1e-14

    def test_single_mode_decay(self, grid64):
        x, _ = grid64.nodes()
        nu, t = 0.3, 0.8
        f = scalar_field(grid64, np.sin(x))
        expected = np.exp(-nu * t) * np.sin(x)
        assert np.max(np.abs(heat_semigroup(f, nu, 0.0, t).values - expected)) <= 1e-13

    def test_zero_mode_feels_only_damping(self, grid32):
        k, t = 1.7, 0.4
        f = scalar_field(grid32, np.ones((32, 32)))
        got = heat_semigroup(f, 0.05, 2.0 * k, t).values
        assert np.max(np.abs(got - np.exp(-2.0 * k * t))) <= 1e-14

    def test_semigroup_law(self, grid64):
        rng = np.random.default_rng(7)
        f = scalar_field(grid64, rng.standard_normal((64, 64)))
        whole = heat_semigroup(f, 0.02, 3.0, 0.9)
        split = heat_semigroup(heat_semigroup(f, 0.02, 3.0, 0.5), 0.02, 3.0, 0.4)
        err = np.max(np.abs(whole.values - split.values))
        assert err <= 1e-13 * max(1.0, np.max(np.abs(f.values)))

    def test_rejects_negative_time(self, grid32):
        f = scalar_field(grid32, np.zeros((32, 32)))
        with pytest.raises(ValueError):
            heat_semigroup(f, 0.1, 0.0, -1e-9)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("argument", ["diffusivity", "damping", "t"])
    def test_rejects_non_finite_arguments(self, grid32, argument, value):
        # A nan must not pass the sign test and return an all-nan field,
        # nor an inf end in a RuntimeWarning or a zero field.
        args = {"diffusivity": 0.1, "damping": 0.5, "t": 0.2, argument: value}
        f = scalar_field(grid32, np.ones((32, 32)))
        args[argument] = value
        with pytest.raises(ValueError, match="finite"):
            heat_semigroup(f, **args)


class TestParseval:
    def test_norm_equality(self, grid64):
        rng = np.random.default_rng(10)
        f = scalar_field(grid64, rng.standard_normal((64, 64)))
        real_norm = np.sqrt(np.mean(f.values ** 2) * grid64.area)
        spec_norm = np.sqrt(np.sum(grid64.weights * np.abs(f.coeffs) ** 2) * grid64.area)
        assert abs(real_norm - spec_norm) <= 1e-12 * real_norm


# Library operator, full-spectrum reference, and input: "s" a scalar, "v" a
# vector.
OPERATORS = {
    "ddx_1": (lambda f: ddx(f, 1), lambda x, L: oracles.fft2_ddx(x, 1, L), "s"),
    "ddx_2": (lambda f: ddx(f, 2), lambda x, L: oracles.fft2_ddx(x, 2, L), "s"),
    "laplacian": (laplacian, oracles.fft2_laplacian, "s"),
    "dealias_scalar": (dealias, oracles.fft2_dealias, "s"),
    "dealias_vector": (dealias, oracles.fft2_dealias, "v"),
    "leray_project": (leray_project, oracles.fft2_leray, "v"),
    "divergence": (divergence, oracles.fft2_divergence, "v"),
    "heat_scalar": (lambda f: heat_semigroup(f, 0.05, 1.5, 0.3),
                    lambda x, L: oracles.fft2_heat(x, 0.05, 1.5, 0.3, L), "s"),
    "heat_vector": (lambda f: heat_semigroup(f, 0.05, 1.5, 0.3),
                    lambda x, L: oracles.fft2_heat(x, 0.05, 1.5, 0.3, L), "v"),
}


class TestFullSpectrumOracle:
    """Every operator on white noise, which fills every mode including the
    Nyquist row and column, against an np.fft.fft2 reference."""

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_operator_matches_fft2_reference(self, n, name):
        op, reference, kind = OPERATORS[name]
        grid = make_grid(n, 3.0)
        rng = np.random.default_rng(n)
        if kind == "v":
            f = vector_field(grid, rng.standard_normal((2, n, n)))
        else:
            f = scalar_field(grid, rng.standard_normal((n, n)))
        expected = reference(f.values, grid.length)
        scale = np.max(np.abs(expected))
        got = op(f)
        assert np.max(np.abs(got.values - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [16, 64])
    def test_spectral_data_is_half_spectrum(self, n):
        grid = make_grid(n, TWO_PI)
        rng = np.random.default_rng(1)
        f = scalar_field(grid, rng.standard_normal((n, n)))
        v = vector_field(grid, rng.standard_normal((2, n, n)))
        assert f.coeffs.shape == (n, n // 2 + 1)
        assert v.coeffs.shape == (2, n, n // 2 + 1)

    @pytest.mark.parametrize("n", [16, 64])
    def test_grid_tables_are_contiguous_half_spectrum(self, n):
        grid = make_grid(n, TWO_PI)
        tables = {name: value for name, value in vars(grid).items()
                  if isinstance(value, np.ndarray)}
        assert "weights" in tables and "mask" in tables
        for name, table in tables.items():
            assert table.shape == (n, n // 2 + 1), name
            assert table.flags["C_CONTIGUOUS"], name
