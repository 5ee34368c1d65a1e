import numpy as np
import pytest

from oldb2d import make_grid
from oldb2d.spectral import dealias, dealiased_products, decay, irfft2, project, rfft2

import oracles
from oracles import fd_derivative

TWO_PI = 2.0 * np.pi


def apply(grid, mult, values):
    """A per-mode operator with multiplier `mult` (a grid table, or an
    expression of them) on real `values`: irfft2(mult * rfft2(values))."""
    return irfft2(mult * rfft2(values), grid.n)


def projected(grid, values):
    """The Leray projection of a real (2, n, n) velocity, through `project`."""
    vh = rfft2(values)
    project(grid, vh)
    return irfft2(vh, grid.n)


def divergence_coeffs(grid, vh):
    return grid.ikx * vh[0] + grid.iky * vh[1]


def band_limited(grid, rng, kmax=None):
    noise = rng.standard_normal((grid.n, grid.n))
    fh = rfft2(noise) * grid.mask
    if kmax is not None:
        ki = np.rint(np.fft.fftfreq(grid.n, 1.0 / grid.n)).astype(int)
        kj = np.arange(grid.n // 2 + 1)
        ki, kj = np.meshgrid(ki, kj, indexing="ij")
        fh *= (np.abs(ki) <= kmax) & (np.abs(kj) <= kmax)
    return irfft2(fh, grid.n)


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


class TestKeptWidth:
    """A dealiased spectrum is stored at the kept width, (..., n, n//3+1).
    Keeping those columns before the axis -2 pass gives the bits of the
    full-width transform's kept columns, and `irfft2` of the kept columns
    gives the bits of `irfft2` of the zero-padded full width."""

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 256])
    @pytest.mark.parametrize("lead", [(), (6,), (4, 3)])
    def test_transform_identities(self, n, lead):
        grid = make_grid(n, 2.0 * np.pi)
        kc = grid.kept_columns
        rng = np.random.default_rng(n + len(lead))
        values = rng.standard_normal(lead + (n, n))
        kept = rfft2(values, kc)
        assert kept.shape == lead + (n, kc)
        assert np.array_equal(kept, rfft2(values)[..., :kc])
        padded = np.zeros(lead + (n, n // 2 + 1), complex)
        padded[..., :kc] = kept
        assert np.array_equal(irfft2(kept, n), irfft2(padded, n))

    def test_dealias_masks_the_kept_columns(self, grid64):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((2, 64, 64))
        kc = grid64.kept_columns
        got = dealias(grid64, values)
        assert got.shape == (2, 64, kc)
        assert np.array_equal(got, rfft2(values)[..., :kc] * grid64.mask[:, :kc])


class TestProductPass:
    """`dealiased_products` forms the y-derivatives of its coefficients
    after the x-pass, as one row of `iky` times the x-passed rows: `iky`
    depends on the column only, so it commutes with the axis -2 transform.
    Its callback reads the fields, their x-derivatives and their
    y-derivatives and returns as many products as it likes; the pass only
    reads its coefficients."""

    @pytest.mark.parametrize("n", [16, 32, 64, 256])
    def test_commuted_y_derivatives(self, n):
        grid = make_grid(n, TWO_PI)
        assert np.all(grid.iky == grid.iky[0])
        rng = np.random.default_rng(n)
        sh = dealias(grid, rng.standard_normal((3, n, n)))
        want = irfft2(grid.at(grid.iky, sh) * sh, n)
        kept = sh.copy()
        prods, reals = dealiased_products(grid, sh, lambda real: real[6:].copy(), keep=9)
        assert np.array_equal(sh, kept)
        assert np.array_equal(reals[:3], irfft2(sh, n))
        assert np.array_equal(reals[3:6], irfft2(grid.at(grid.ikx, sh) * sh, n))
        rms = np.sqrt(np.mean(want ** 2, axis=(-2, -1)))
        err = np.max(np.abs(reals[6:] - want), axis=(-2, -1))
        assert np.all(err <= 1e-14 * rms), err / rms
        assert np.allclose(prods, dealias(grid, want), rtol=0.0, atol=1e-14 * rms.max())

    def test_products_outnumber_planes(self):
        """More products than the coefficients have planes, and fewer: each
        is the dealiased spectrum of the same products formed on the whole
        grid."""
        grid = make_grid(16, TWO_PI)
        sh = dealias(grid, np.random.default_rng(1).standard_normal((2, 16, 16)))

        def squares(real):
            return np.stack([real[0] * real[0], 3.0 * real[0]])

        prods, reals = dealiased_products(grid, sh[:1], squares)
        assert prods.shape == (2, 16, grid.kept_columns) and reals.shape == (0, 16, 16)
        assert np.array_equal(prods, dealias(grid, squares(irfft2(sh[:1], 16))))

        def advection(real):
            return (real[0] * real[2] + real[1] * real[5])[None]

        # The derivatives as the pass forms them: `ikx` times the
        # coefficients before the x-pass, `iky` times x-passed rows.
        mixed = np.fft.ifft(sh, axis=-2, norm="forward")
        dx = np.fft.ifft(grid.at(grid.ikx, sh) * sh, axis=-2, norm="forward")
        real = np.fft.irfft(np.concatenate([mixed, dx, grid.at(grid.iky, sh) * mixed]), n=16,
                            axis=-1, norm="forward")
        prods, _ = dealiased_products(grid, sh, advection)
        assert prods.shape == (1, 16, grid.kept_columns)
        assert np.array_equal(prods, dealias(grid, advection(real)))


class TestDdx:
    """Spectral derivatives: `ikx` and `iky` on the half spectrum."""

    def test_single_mode(self, grid64):
        x, y = grid64.nodes()
        assert np.max(np.abs(apply(grid64, grid64.ikx, np.sin(x)) - np.cos(x))) <= 1e-13

    def test_constant(self, grid32):
        f = np.full((32, 32), 4.2)
        assert np.max(np.abs(apply(grid32, grid32.ikx, f))) <= 1e-14
        assert np.max(np.abs(apply(grid32, grid32.iky, f))) <= 1e-14

    def test_against_finite_difference_oracle(self, grid64):
        # d/dy sin(3x)cos(2y) = -2 sin(3x) sin(2y); the 8th-order stencil
        # resolves it to ~1e-9 at this spacing.
        x, y = grid64.nodes()
        vals = np.sin(3 * x) * np.cos(2 * y)
        got = apply(grid64, grid64.iky, vals)
        oracle = fd_derivative(vals, axis=1, h=grid64.spacing)
        exact = -2.0 * np.sin(3 * x) * np.sin(2 * y)
        assert np.max(np.abs(got - oracle)) <= 1e-8
        assert np.max(np.abs(got - exact)) <= 1e-13


class TestLaplacian:
    """-k_sq on the half spectrum."""

    def test_eigenfunction(self, grid64):
        # |k|^2 amplifies the transform's rounding noise, so the tolerance
        # is 1e-12 rather than the first-derivative 1e-13.
        x, _ = grid64.nodes()
        assert np.max(np.abs(apply(grid64, -grid64.k_sq, np.sin(x)) + np.sin(x))) <= 1e-12

    def test_constant(self, grid32):
        assert np.max(np.abs(apply(grid32, -grid32.k_sq, np.ones((32, 32))))) <= 1e-14

    def test_matches_composed_derivatives(self, grid64):
        rng = np.random.default_rng(3)
        f = band_limited(grid64, rng)
        g = grid64
        composed = (apply(g, g.ikx, apply(g, g.ikx, f))
                    + apply(g, g.iky, apply(g, g.iky, f)))
        err = np.max(np.abs(apply(g, -g.k_sq, f) - composed))
        assert err <= 1e-12 * max(1.0, np.max(np.abs(f)))


class TestDealias:
    """The 2/3-rule `mask` on the half spectrum."""

    def test_low_mode_unchanged(self, grid64):
        x, y = grid64.nodes()
        f = np.cos(x)
        assert np.max(np.abs(apply(grid64, grid64.mask, f) - f)) <= 1e-15

    def test_high_mode_removed(self, grid64):
        x, _ = grid64.nodes()
        f = np.cos(31 * x)  # mode (n/2 - 1, 0)
        assert np.max(np.abs(apply(grid64, grid64.mask, f))) <= 1e-13

    def test_idempotent(self, grid64):
        # Masking twice is masking once, to the rounding of a transform pair.
        rng = np.random.default_rng(4)
        f = rng.standard_normal((64, 64))
        once = apply(grid64, grid64.mask, f)
        twice = apply(grid64, grid64.mask, once)
        scale = np.max(np.abs(f))
        assert np.max(np.abs(twice - once)) <= 1e-15 * scale
        assert np.max(np.abs(rfft2(once)[~grid64.mask])) <= 1e-16 * scale


class TestLerayProjection:
    """`project` on the half spectrum."""

    def test_divergence_free_fixed_point(self, grid64):
        _, y = grid64.nodes()
        v = np.stack([np.sin(y), np.zeros_like(y)])
        assert np.max(np.abs(projected(grid64, v) - v)) <= 1e-13

    def test_gradient_annihilated(self, grid64):
        x, y = grid64.nodes()
        phi = np.sin(x) * np.sin(y)
        grad = np.stack([apply(grid64, grid64.ikx, phi), apply(grid64, grid64.iky, phi)])
        assert np.max(np.abs(projected(grid64, grad))) <= 1e-13

    def test_idempotent_and_divergence_free(self, grid64):
        rng = np.random.default_rng(5)
        vh = rfft2(rng.standard_normal((2, 64, 64)))
        scale = np.sqrt(np.sum(grid64.weights * np.abs(vh) ** 2))
        project(grid64, vh)
        assert np.max(np.abs(divergence_coeffs(grid64, vh))) <= 1e-13 * scale
        again = vh.copy()
        project(grid64, again)
        assert np.max(np.abs(again - vh)) <= 1e-13 * scale

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
    """The heat factor `decay` on the half spectrum."""

    def test_identity_at_zero_time(self, grid32):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((32, 32))
        real_gap = np.max(np.abs(apply(grid32, decay(grid32, 0.5, 1.0, 0.0), f) - f))
        assert real_gap <= 1e-14

    def test_single_mode_decay(self, grid64):
        x, _ = grid64.nodes()
        nu, t = 0.3, 0.8
        expected = np.exp(-nu * t) * np.sin(x)
        got = apply(grid64, decay(grid64, nu, 0.0, t), np.sin(x))
        assert np.max(np.abs(got - expected)) <= 1e-13

    def test_zero_mode_feels_only_damping(self, grid32):
        k, t = 1.7, 0.4
        got = apply(grid32, decay(grid32, 0.05, 2.0 * k, t), np.ones((32, 32)))
        assert np.max(np.abs(got - np.exp(-2.0 * k * t))) <= 1e-14

    def test_semigroup_law(self, grid64):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((64, 64))
        whole = apply(grid64, decay(grid64, 0.02, 3.0, 0.9), f)
        split = apply(grid64, decay(grid64, 0.02, 3.0, 0.4),
                      apply(grid64, decay(grid64, 0.02, 3.0, 0.5), f))
        err = np.max(np.abs(whole - split))
        assert err <= 1e-13 * max(1.0, np.max(np.abs(f)))

    def test_rejects_negative_time(self, grid32):
        with pytest.raises(ValueError):
            decay(grid32, 0.1, 0.0, -1e-9)
        with pytest.raises(ValueError):
            decay(grid32, 0.1, 0.0, np.array([0.0, 0.1, -1e-9])[:, None, None])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("argument", ["diffusivity", "damping", "t"])
    def test_rejects_non_finite_arguments(self, grid32, argument, value):
        # A nan must not pass the sign test and give an all-nan factor, nor
        # an inf end in a RuntimeWarning or a zero factor.
        args = {"diffusivity": 0.1, "damping": 0.5, "t": 0.2, argument: value}
        with pytest.raises(ValueError, match="finite"):
            decay(grid32, **args)


class TestParseval:
    def test_norm_equality(self, grid64):
        rng = np.random.default_rng(10)
        f = rng.standard_normal((64, 64))
        real_norm = np.sqrt(np.mean(f ** 2) * grid64.area)
        spec_norm = np.sqrt(np.sum(grid64.weights * np.abs(rfft2(f)) ** 2) * grid64.area)
        assert abs(real_norm - spec_norm) <= 1e-12 * real_norm


# Per-mode operator from the grid's tables, full-spectrum reference, and
# input: "s" a scalar, "v" a vector.
OPERATORS = {
    "ddx_1": (lambda g, f: apply(g, g.ikx, f), lambda x, L: oracles.fft2_ddx(x, 1, L), "s"),
    "ddx_2": (lambda g, f: apply(g, g.iky, f), lambda x, L: oracles.fft2_ddx(x, 2, L), "s"),
    "laplacian": (lambda g, f: apply(g, -g.k_sq, f), oracles.fft2_laplacian, "s"),
    "dealias_scalar": (lambda g, f: apply(g, g.mask, f), oracles.fft2_dealias, "s"),
    "dealias_vector": (lambda g, f: apply(g, g.mask, f), oracles.fft2_dealias, "v"),
    "project": (projected, oracles.fft2_leray, "v"),
    "divergence": (lambda g, f: irfft2(divergence_coeffs(g, rfft2(f)), g.n),
                   oracles.fft2_divergence, "v"),
    "heat_scalar": (lambda g, f: apply(g, decay(g, 0.05, 1.5, 0.3), f),
                    lambda x, L: oracles.fft2_heat(x, 0.05, 1.5, 0.3, L), "s"),
    "heat_vector": (lambda g, f: apply(g, decay(g, 0.05, 1.5, 0.3), f),
                    lambda x, L: oracles.fft2_heat(x, 0.05, 1.5, 0.3, L), "v"),
}


class TestFullSpectrumOracle:
    """Every per-mode operator on white noise, which fills every mode
    including the Nyquist row and column, against an np.fft.fft2
    reference."""

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_operator_matches_fft2_reference(self, n, name):
        op, reference, kind = OPERATORS[name]
        grid = make_grid(n, 3.0)
        rng = np.random.default_rng(n)
        f = rng.standard_normal((2, n, n) if kind == "v" else (n, n))
        expected = reference(f, grid.length)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(op(grid, f) - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [16, 64])
    def test_spectral_data_is_half_spectrum(self, n):
        rng = np.random.default_rng(1)
        assert rfft2(rng.standard_normal((n, n))).shape == (n, n // 2 + 1)
        assert rfft2(rng.standard_normal((2, n, n))).shape == (2, n, n // 2 + 1)

    @staticmethod
    def _tables(grid):
        return {name: value for name, value in vars(grid).items()
                if isinstance(value, np.ndarray)}

    @pytest.mark.parametrize("n", [16, 64])
    def test_grid_tables_are_separable_half_spectrum(self, n):
        """Each table is a contiguous array at the shape of the axes it
        depends on, and broadcasts, bit for bit, to the full-width
        (n, n//2+1) table rebuilt here from `fftfreq`."""
        length, w = 3.0, n // 2 + 1
        kxi, kyi = np.meshgrid(np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(np.int64),
                               np.arange(w), indexing="ij")
        scale = 2.0 * np.pi / length
        kx, ky = scale * kxi, scale * kyi
        k_sq = kx * kx + ky * ky
        kx = np.where(np.abs(kxi) == n // 2, 0.0, kx)
        ky = np.where(kyi == n // 2, 0.0, ky)
        k_sq_d = kx * kx + ky * ky
        full = {
            "kx": kx, "ky": ky, "ikx": 1j * kx, "iky": 1j * ky, "k_sq": k_sq,
            "inv_k_sq_d": np.divide(1.0, k_sq_d, out=np.zeros_like(k_sq_d), where=k_sq_d > 0),
            "mask": (3 * np.abs(kxi) <= n) & (3 * kyi <= n),
            "weights": np.where((kyi == 0) | (kyi == n // 2), 1.0, 2.0),
        }
        shapes = {"kx": (n, 1), "ikx": (n, 1), "ky": (1, w), "iky": (1, w),
                  "weights": (1, w), "k_sq": (n, w), "inv_k_sq_d": (n, w), "mask": (n, w)}
        tables = self._tables(make_grid(n, length))
        assert tables.keys() == shapes.keys()
        for name, table in tables.items():
            assert table.shape == shapes[name], name
            assert table.flags["C_CONTIGUOUS"], name
            assert table.dtype == full[name].dtype, name
            assert np.broadcast_to(table, (n, w)).tobytes() == full[name].tobytes(), name

    def test_grid_tables_bytes_at_n256(self):
        """Full-width tables held 2.41 MB at n=256; the separable ones hold
        0.57 MB."""
        assert sum(t.nbytes for t in self._tables(make_grid(256, TWO_PI)).values()) <= 0.6e6
