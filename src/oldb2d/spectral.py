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

The grid tables are full width, and an operation reads them at its
operand's width w as `table[:, :w]` (`SpectralGrid.at`); so norms summed
over either width count every column whose conjugate partner the half
spectrum omits twice (`SpectralGrid.weights`).  Transforms use the
mean-preserving normalization: the forward FFT divides by N^2, so the (0, 0)
coefficient of a field equals its spatial mean.  `rfft2` and `irfft2` are
two `numpy.fft` passes over the last two axes, batched over any leading
axes: the forward pass transforms the last axis and then axis -2; the
inverse undoes them in reverse order.  `rfft2(..., columns=w)` keeps the
first w columns before its axis -2 pass, which then transforms only those,
and `dealias` gives the kept-width, masked spectrum of real planes.
`irfft2` reads a spectrum of either width: `numpy.fft.irfft` pads the
missing columns with zeros.  Both are bit-identical, on the columns kept,
to the full-width transforms, since every 1-D transform sees the same
operands.  `irfft2(..., overwrite_x=True)` lets its first pass write into
the input, for callers that drop a scratch stack right after its
transform: it saves a complex temporary the size of that stack.
`irfft2(..., out=)` writes the real result into a buffer the caller holds.
`_Scratch` holds transform buffers across calls, so that a warm caller
reuses its stacks instead of allocating, and faulting in, fresh ones on
every evaluation; a buffer is replaced only by a larger one, and a smaller
request reads its front.

`dealiased_products` is the one pseudo-spectral product pass, in bounded
memory: the stepper's explicit terms and the Picard map's integrands both
go through it.  It reads a stack of dealiased factors at the kept width
and visits real space one block of x-rows at a time: the y-passes, the
caller's pointwise products and the copy of any real planes the caller
keeps run per block in small held buffers, and each block's products are
transformed into a held buffer from which only the kept columns are
copied out.  `_BLOCK_BYTES` is the one budget that sizes the row blocks
and the Picard map's node blocks.

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


class _Scratch:
    """Transform buffers reused across calls, one per role.

    A caller that builds a stack, transforms it and drops it on every call
    takes the stack from here instead: a fresh allocation of that size is
    returned to the operating system when it is freed and faulted back in,
    page by page, on the next call.  `take` has one rule: it returns the
    front of a role's buffer, read as `shape`, for any shape that fits in
    it, and replaces the buffer only for a larger shape or another dtype.
    So a ragged last block, or a smaller grid, reads the front of the
    buffer, and a held buffer only grows while its dtype stays.
    Contents are not kept: the caller writes every element it reads.  An
    array taken is valid until the next `take` of its role, so a caller
    that uses one is not reentrant across threads, and a public function
    must not return one."""

    def __init__(self):
        self._buffers: dict = {}

    def take(self, role: str, shape: tuple, dtype=complex) -> np.ndarray:
        buf = self._buffers.get(role)
        if buf is None or buf.dtype != dtype or buf.size < math.prod(shape):
            del buf
            self._buffers.pop(role, None)  # free the old buffer before the new one
            buf = self._buffers[role] = np.empty(shape, dtype)
        return _leading(buf, shape)


# The one memory budget of the product passes.  A row block of
# `dealiased_products` holds this many bytes of real planes: a grid whose
# whole stack fits is one block (up to n=64 for the stepper's 18 planes),
# and n=256 takes ten.  A node block of `picard.apply_map` holds as many
# nodes as fit one node's pass, its kept-width stack and real blocks: 16
# nodes at n=16, 4 at n=32, 1 from n=64 up.
_BLOCK_BYTES = 1 << 20


def dealiased_products(grid: SpectralGrid, stack: np.ndarray, depth: int, products,
                       count: int, scratch: _Scratch, keep=None):
    """The dealiased spectrum, at the kept width, of `count` pointwise
    products of the real fields whose coefficients fill `stack`.

    `stack` is a complex (planes, n, kc) buffer with kc = `grid.kept_columns`:
    dealiased coefficients at the kept width.  Its first `depth` planes are
    transformed, and the x-pass overwrites them.  Real space is visited in
    blocks of x-rows, as many as `_BLOCK_BYTES` holds for all of the
    buffer's planes (so calls of different depths share one block buffer):
    `products(real, out)` reads a block's real planes (depth, rows, n) and
    writes its products into `out` (count, rows, n).  Both blocks are
    `scratch` buffers.  Once a block's products are formed its real planes
    are dead, so their `rfft` is written into the real block's memory, and
    only the kept columns are copied out; this needs planes * n >=
    count * (n + 2).

    Returns a fresh, masked (count, n, kc) array, bit-identical to the kept
    columns of `rfft2` of the full-width products times the mask, and, with
    `keep` (a list of plane indices), a fresh (len(keep), n, n) array of
    those real planes, bit-identical to their `irfft2`; else None."""
    n = grid.n
    kc = stack.shape[-1]
    rows = max(1, min(n, _BLOCK_BYTES // (len(stack) * n * 8)))
    real_buf = scratch.take("real", (len(stack), rows, n), float)
    prod_buf = scratch.take("products", (count, rows, n), float)
    out = reals = None

    coeffs = stack[:depth]
    np.fft.ifft(coeffs, axis=-2, norm="forward", out=coeffs)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        real = np.fft.irfft(coeffs[:, start:stop], n=n, axis=-1, norm="forward",
                            out=_leading(real_buf, (depth, stop - start, n)))
        prods = products(real, _leading(prod_buf, (count, stop - start, n)))
        if out is None:  # after the first block's product temporaries are freed
            out = np.empty((count, n, kc), complex)
            reals = None if keep is None else np.empty((len(keep), n, n))
        if reals is not None:
            for i, plane in enumerate(keep):
                reals[i, start:stop] = real[plane]
        half = np.fft.rfft(prods, axis=-1, norm="forward",
                           out=_leading(real_buf, (count, stop - start, n // 2 + 1), complex))
        out[:, start:stop] = half[..., :kc]
    np.fft.fft(out, axis=-2, norm="forward", out=out)
    out *= grid.at(grid.mask, out)
    return out, reals


def _leading(buf: np.ndarray, shape: tuple, dtype=None) -> np.ndarray:
    """The contiguous array of `shape` at the front of `buf`'s memory, read
    as `dtype` (default: `buf`'s own)."""
    flat = buf.reshape(-1)
    if dtype is not None:
        flat = flat.view(dtype)
    return flat[:math.prod(shape)].reshape(shape)


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Uniform N x N periodic grid on [0, L)^2 with wavenumber tables.

    Index convention: array element [i, j] sits at (x_i, y_j), so the first
    array axis is the x-direction (derivative index 1) and the second is y
    (index 2).  Every table is a contiguous (n, n//2+1) array over the
    full-width `rfft2` half spectrum, read at a narrower operand's width
    through `at`: row i holds the x wavenumber in `fftfreq` order,
    column j the y wavenumber j >= 0.  `kx`, `ky` are the physical
    derivative wavenumbers 2*pi/L * integer with the Nyquist frequency
    zeroed, so that derivatives of real fields stay real; `ikx`, `iky` are
    the derivative multipliers 1j * kx, 1j * ky.
    """

    n: int
    length: float
    kx: np.ndarray
    ky: np.ndarray
    ikx: np.ndarray
    iky: np.ndarray
    k_sq: np.ndarray        # |k|^2, Nyquist modes included
    inv_k_sq_d: np.ndarray  # 1/(kx^2 + ky^2) from the derivative wavenumbers
    mask: np.ndarray        # 2/3-rule dealias mask
    weights: np.ndarray     # Hermitian weights: 2 for every column whose
                            # conjugate partner the half spectrum omits

    @property
    def spacing(self) -> float:
        return self.length / self.n

    def at(self, table: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """`table`, one of this grid's tables, read at the width of the
        spectrum `coeffs`: its first coeffs.shape[-1] columns.  The one rule
        by which a full-width table meets a kept-width operand."""
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
    dealias mask and the Hermitian weights."""
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

    kxi, kyi = np.meshgrid(np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(np.int64),
                           np.arange(n // 2 + 1), indexing="ij")
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
