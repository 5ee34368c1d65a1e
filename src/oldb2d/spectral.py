"""Spectral operators on the periodic square.

Fields live on an N x N uniform grid over [0, L)^2.  Spectra come in two
widths of one layout, the `rfft2` half spectrum:

- raw data (a state's planes, a snapshot read from disk, a field that is
  not band-limited) is transformed at the full width, (N, N//2+1)
  coefficients per real field;
- a dealiased spectrum (the stepper's packed state, its explicit terms and
  stages, the Picard path and its integrands) holds only the columns the
  2/3 rule keeps, (N, N//3+1): the columns beyond are zero by
  construction, so they are never stored.

Each grid table is stored at the shape of the axes it depends on: an (n, 1)
column for the x wavenumbers, a (1, n//2+1) row for the y wavenumbers and
the Hermitian weights, and the full (n, n//2+1) half spectrum for the
tables of both axes.  An operation reads a table at its operand's width w
as `table[:, :w]` (`SpectralGrid.at`), which leaves a column whole, and
lets it broadcast; so norms summed over either width count every column
whose conjugate partner the half spectrum omits twice
(`SpectralGrid.weights`).  Transforms use the mean-preserving
normalization: the forward FFT divides by N^2, so the (0, 0) coefficient
of a field equals its spatial mean.  `rfft2` and `irfft2` are
two `numpy.fft` passes over the last two axes, batched over any leading
axes: the forward pass transforms the last axis and then axis -2; the
inverse undoes them in reverse order.  `rfft2(..., columns=w)` keeps the
first w columns before its axis -2 pass, which then transforms only those,
and `dealias` gives the kept-width, masked spectrum of real planes.
`irfft2` reads a spectrum of either width: `numpy.fft.irfft` pads the
missing columns with zeros.  Both are bit-identical, on the columns kept,
to the full-width transforms, since every 1-D transform sees the same
operands.  `irfft2(..., overwrite_x=True)` lets its first pass write into
the input, for callers that drop a temporary stack right after its
transform: it saves a complex temporary the size of that stack.
`irfft2(..., out=)` writes the real result into a buffer the caller holds.

`dealiased_products` is the one pseudo-spectral product pass, in bounded
memory: the stepper's explicit terms and the Picard map's integrands both
go through it.  It reads a stack of dealiased factors at the kept width
and visits real space one block of x-rows at a time, in fresh arrays per
block: the y-passes, the caller's pointwise products and their `rfft`,
of which only the kept columns are copied out.  The y-derivatives of the
stack's first planes are not stored in it: `iky` depends on the column
only, so it commutes with the axis -2 transform, and each block forms
them from its x-passed rows and y-passes them with the other planes.
They equal the y-pass of the spectral-first `iky * f_hat` to rounding.
`_BLOCK_BYTES` is the one budget that sizes the row blocks and the Picard
map's node blocks.

Dealiasing follows the 2/3 rule: a mode with integer wavenumbers (k1, k2)
survives iff 3 * max(|k1|, |k2|) <= N, which keeps quadratic products of
surviving modes alias-free on the grid.

The per-mode Leray projection (`project`) and heat factor (`decay`) act on
coefficient arrays of any batch shape and either width; the stepper, the
Picard map and `check` share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def rfft2(values: np.ndarray, columns: int | None = None) -> np.ndarray:
    """Forward real FFT over the last two axes (batches over leading axes):
    `rfft` along the last axis, then `fft` along axis -2.

    With `columns`, the `fft` transforms only the first `columns`
    coefficients of each row into a fresh array of that width, bit for bit
    `rfft2(values)[..., :columns]`."""
    coeffs = np.fft.rfft(values, axis=-1, norm="forward")
    if columns is None:
        return np.fft.fft(coeffs, axis=-2, norm="forward", out=coeffs)
    return np.fft.fft(coeffs[..., :columns], axis=-2, norm="forward")


def dealias(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """The dealiased spectrum of real planes `values` (..., n, n) at the
    kept width: `rfft2` on the kept columns, times the mask."""
    coeffs = rfft2(values, grid.kept_columns)
    coeffs *= grid.at(grid.mask, coeffs)
    return coeffs


def irfft2(coeffs: np.ndarray, n: int, *, overwrite_x: bool = False,
           out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of `rfft2` onto an n x n real grid: `ifft` along axis -2,
    then `irfft` along the last axis, which reads a spectrum narrower than
    n//2+1 columns as zero beyond them.  With `overwrite_x` the `ifft` pass
    writes into `coeffs`, which the caller must not read afterwards.  With
    `out`, a float array of the result's shape, the `irfft` pass writes the
    result there and returns `out`."""
    mixed = np.fft.ifft(coeffs, axis=-2, norm="forward", out=coeffs if overwrite_x else None)
    return np.fft.irfft(mixed, n=n, axis=-1, norm="forward", out=out)


# The one memory budget of the product passes.  A row block of
# `dealiased_products` holds this many bytes of real planes: a grid whose
# rows all fit is one block (up to n=64 for the stepper's 18 real planes,
# its 12 stack planes and 6 y-derivatives), and n=256 takes ten.  A
# node block of `picard.apply_map` holds as many nodes as fit one node's
# pass, its 12 kept-width stack planes and 24 real planes: 15 nodes at
# n=16, 3 at n=32, 1 from n=64 up.
_BLOCK_BYTES = 1 << 20


def dealiased_products(grid: SpectralGrid, stack: np.ndarray, dy: int, products,
                       keep: int = 0):
    """The dealiased spectrum, at the kept width, of the pointwise products
    of the real fields whose coefficients fill `stack` and of the
    y-derivatives of its first `dy` fields.

    `stack` is a complex (planes, n, kc) array with kc = `grid.kept_columns`:
    dealiased coefficients at the kept width, which the x-pass overwrites.
    Real space is visited in blocks of x-rows, as many as `_BLOCK_BYTES`
    holds for the planes + dy real planes.  Each block takes fresh arrays:
    its real planes (planes + dy, rows, n), the stack's planes and then the
    y-derivatives, which `products(real)` reads to return a fresh array of
    products (count, rows, n).  `iky` depends on the column only, so it
    commutes with the x-pass: a block's y-derivative spectra are its
    x-passed rows times one row of `iky`.

    Returns a masked (count, n, kc) array, bit-identical to the kept
    columns of `rfft2` of the full-width products times the mask, and a
    (keep, n, n) array of the first `keep` real planes, bit-identical to
    their `irfft2` for planes of the stack."""
    n = grid.n
    planes, kc = len(stack), stack.shape[-1]
    rows = max(1, min(n, _BLOCK_BYTES // ((planes + dy) * n * 8)))
    iky = grid.at(grid.iky, stack)
    out = reals = None

    np.fft.ifft(stack, axis=-2, norm="forward", out=stack)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        coeffs = stack[:, block]
        real = np.empty((planes + dy, coeffs.shape[1], n))
        np.fft.irfft(coeffs, n=n, axis=-1, norm="forward", out=real[:planes])
        np.fft.irfft(iky * coeffs[:dy], n=n, axis=-1, norm="forward", out=real[planes:])
        prods = products(real)
        if out is None:  # after the first block's product temporaries are freed
            out = np.empty((len(prods), n, kc), complex)
            reals = np.empty((keep, n, n))
        reals[:, block] = real[:keep]
        del real  # before the products' spectra are formed
        out[:, block] = np.fft.rfft(prods, axis=-1, norm="forward")[..., :kc]
        del prods  # before the next block's real planes
    np.fft.fft(out, axis=-2, norm="forward", out=out)
    out *= grid.at(grid.mask, out)
    return out, reals


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Uniform N x N periodic grid on [0, L)^2 with wavenumber tables.

    Index convention: array element [i, j] sits at (x_i, y_j), so the first
    array axis is the x-direction (derivative index 1) and the second is y
    (index 2).  Every table is a contiguous array over the full-width
    `rfft2` half spectrum, (n, n//2+1) or, for a table of one axis, the
    (n, 1) column or (1, n//2+1) row that broadcasts to it, read at a
    narrower operand's width through `at`: row i holds the x wavenumber in
    `fftfreq` order, column j the y wavenumber j >= 0.  `kx`, `ky` are the
    physical derivative wavenumbers 2*pi/L * integer with the Nyquist
    frequency zeroed, so that derivatives of real fields stay real; `ikx`,
    `iky` are the derivative multipliers 1j * kx, 1j * ky.
    """

    n: int
    length: float
    kx: np.ndarray          # (n, 1)
    ky: np.ndarray          # (1, n//2+1)
    ikx: np.ndarray         # (n, 1)
    iky: np.ndarray         # (1, n//2+1)
    k_sq: np.ndarray        # |k|^2, Nyquist modes included; (n, n//2+1)
    inv_k_sq_d: np.ndarray  # 1/(kx^2 + ky^2) from the derivative wavenumbers
    mask: np.ndarray        # 2/3-rule dealias mask; (n, n//2+1)
    weights: np.ndarray     # Hermitian weights, (1, n//2+1): 2 for every column
                            # whose conjugate partner the half spectrum omits

    @property
    def spacing(self) -> float:
        return self.length / self.n

    def at(self, table: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """`table`, one of this grid's tables, read at the width of the
        spectrum `coeffs`: its first coeffs.shape[-1] columns, which is the
        whole of an (n, 1) column.  The one rule by which a full-width
        table meets a kept-width operand; the result broadcasts against
        it."""
        return table[:, :coeffs.shape[-1]]

    @property
    def kept_columns(self) -> int:
        """Half-spectrum columns the 2/3 rule keeps: ky = 0 .. n//3."""
        return self.n // 3 + 1

    @property
    def area(self) -> float:
        return self.length ** 2

    def nodes(self):
        """Coordinate arrays (x, y) with x[i, j] = i*L/N, y[i, j] = j*L/N."""
        x = np.arange(self.n) * self.spacing
        return np.meshgrid(x, x, indexing="ij")


def make_grid(n: int, length: float) -> SpectralGrid:
    """Build a grid with half-spectrum wavenumber tables, the 2/3-rule
    dealias mask and the Hermitian weights: x tables as (n, 1) columns, y
    tables and the weights as (1, n//2+1) rows, and the tables of both axes
    at (n, n//2+1).  At n=256 they hold 0.57 MB; full width, 2.41 MB."""
    if int(n) != n:
        raise ValueError("n must be an integer")
    n = int(n)
    if n < 8:
        raise ValueError("n must be at least 8")
    if n % 2 != 0:
        raise ValueError("n must be even")
    length = float(length)
    if not np.isfinite(length) or length <= 0.0:
        raise ValueError("length must be positive")

    kxi = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(np.int64)[:, None]
    kyi = np.arange(n // 2 + 1)[None, :]
    scale = 2.0 * np.pi / length
    kx, ky = scale * kxi, scale * kyi
    k_sq = kx * kx + ky * ky

    # Odd-order derivative multipliers must vanish at the Nyquist frequency.
    kx = np.where(np.abs(kxi) == n // 2, 0.0, kx)
    ky = np.where(kyi == n // 2, 0.0, ky)
    mask = (3 * np.abs(kxi) <= n) & (3 * kyi <= n)
    weights = np.where((kyi == 0) | (kyi == n // 2), 1.0, 2.0)
    return SpectralGrid(n, length, kx, ky, 1j * kx, 1j * ky, k_sq,
                        _reciprocal(kx * kx + ky * ky), mask, weights)


def _reciprocal(k_sq: np.ndarray) -> np.ndarray:
    out = np.zeros_like(k_sq)
    nz = k_sq > 0.0
    out[nz] = 1.0 / k_sq[nz]
    return out


@dataclass(frozen=True)
class Field:
    """A real (n, n) array on `grid`: what `fields.SimState.rho` returns."""

    grid: SpectralGrid
    values: np.ndarray


def project(grid: SpectralGrid, vh: np.ndarray) -> None:
    """Leray-project, in place, the velocity pair vh[..., 0, :, :] and
    vh[..., 1, :, :] of half-spectrum coefficients, batched over any leading
    axes; mode (0, 0) is unchanged.

    Uses the derivative wavenumbers (Nyquist zeroed), so the divergence
    ikx * v1 + iky * v2 of the result vanishes and the projection of a real
    field stays real.  The one projection: the stepper and the Picard map
    call it, at the kept width; it reads the tables at `vh`'s width."""
    v1, v2 = vh[..., 0, :, :], vh[..., 1, :, :]
    kx, ky = grid.at(grid.kx, vh), grid.at(grid.ky, vh)
    kd = (kx * v1 + ky * v2) * grid.at(grid.inv_k_sq_d, vh)
    v1 -= kx * kd
    v2 -= ky * kd


def decay(grid: SpectralGrid, diffusivity: float, damping: float, t,
          columns: int | None = None) -> np.ndarray:
    """The per-mode heat factor exp(-(diffusivity*|k|^2 + damping) * t); a
    time array `t` of shape (m, 1, 1) gives one factor per time.  With
    `columns`, only the first `columns` half-spectrum columns.  The one
    heat exponential: the Picard map calls it at the kept width.  A
    negative or non-finite argument raises, as a nan would pass a sign test
    alone."""
    if not np.all((0.0 <= t) & (t < math.inf)):
        raise ValueError("t must be nonnegative and finite")
    if not (0.0 <= diffusivity < math.inf and 0.0 <= damping < math.inf):
        raise ValueError("diffusivity and damping must be nonnegative and finite")
    return np.exp(-(diffusivity * grid.k_sq[:, :columns] + damping) * t)


def l2_scale(grid: SpectralGrid, coeffs: np.ndarray) -> float:
    """sqrt of the sum of |f_k|^2 over the full spectrum, from half-spectrum
    coefficients of either width (the root mean square of the field, by
    Parseval)."""
    return float(np.sqrt(np.sum(grid.at(grid.weights, coeffs) * np.abs(coeffs) ** 2)))
