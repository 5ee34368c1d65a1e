"""Spectral operators on the periodic square.

Fields live on an N x N uniform grid over [0, L)^2.  The one spectral
representation is the `rfft2` half spectrum, (N, N//2+1) coefficients per
real field; norms summed over it count every column whose conjugate partner
it omits twice (`SpectralGrid.weights`).  Transforms use the
mean-preserving normalization: the forward FFT divides by N^2, so the (0, 0)
coefficient of a field equals its spatial mean.  `rfft2` and `irfft2` are
two `numpy.fft` passes over the last two axes, batched over any leading
axes: the forward pass transforms the last axis and then axis -2 in place;
the inverse undoes them in reverse order.  `irfft2(..., overwrite_x=True)`
lets its first pass write into the input, for callers that drop a scratch
stack right after its transform: it saves a complex temporary the size of
that stack.  `irfft2(..., out=)` writes the real result into a buffer the
caller holds.  `_Scratch` holds such buffers across calls, so that a warm
caller reuses its transform stacks instead of allocating, and faulting in,
fresh ones on every evaluation.

`dealiased_products` is the pseudo-spectral product pass in bounded memory.
It reads a stack of dealiased factors as their kept columns only (the 2/3
rule zeroes every half-spectrum column from n//3 + 1 on) and transforms only
those columns along x.  It visits real space one block of x-rows at a time:
the y-passes, the caller's pointwise products and the copy of any real
planes the caller keeps run per block in small held buffers.  Every 1-D
transform sees the same operands as `irfft2`/`rfft2` of the full stack, so
the result is bit-identical to that full-width pass.

Dealiasing follows the 2/3 rule: a mode with integer wavenumbers (k1, k2)
survives iff 3 * max(|k1|, |k2|) <= N, which keeps quadratic products of
surviving modes alias-free on the grid.

A `Field` is one real array on a grid.  The per-mode Leray projection
(`project`) and heat factor (`decay`) act on coefficient arrays of any
batch shape; the stepper, the Picard map and the field operators
`leray_project` and `heat_semigroup` share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def rfft2(values: np.ndarray) -> np.ndarray:
    """Forward real FFT over the last two axes (batches over leading axes):
    `rfft` along the last axis, then `fft` along axis -2 in place."""
    coeffs = np.fft.rfft(values, axis=-1, norm="forward")
    return np.fft.fft(coeffs, axis=-2, norm="forward", out=coeffs)


def irfft2(coeffs: np.ndarray, n: int, *, overwrite_x: bool = False,
           out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of `rfft2` onto an n x n real grid: `ifft` along axis -2,
    then `irfft` along the last axis.  With `overwrite_x` the `ifft` pass
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
    page by page, on the next call.  `take` returns a role's buffer, and
    replaces it when asked for another shape or dtype (a new n or node
    count).  Contents are not kept: the caller writes every element it
    reads.  An array taken is valid until the next `take` of its role, so
    a caller that uses one is not reentrant across threads, and a public
    function must not return one."""

    def __init__(self):
        self._buffers: dict = {}

    def take(self, role: str, shape: tuple, dtype=complex) -> np.ndarray:
        buf = self._buffers.get(role)
        if buf is not None and buf.shape == shape and buf.dtype == dtype:
            return buf
        del buf
        self._buffers.pop(role, None)  # free the old buffer before the new one
        buf = self._buffers[role] = np.empty(shape, dtype)
        return buf


# Bytes of real derivative planes that one row block of `dealiased_products`
# holds; a grid whose whole stack fits in it is one block.
_BLOCK_BYTES = 2 << 20


def dealiased_products(grid: SpectralGrid, stack: np.ndarray, depth: int, products,
                       count: int, scratch: _Scratch, keep=None):
    """The dealiased half spectrum of `count` pointwise products of the real
    fields whose coefficients fill `stack`.

    `stack` is a complex (planes, n, kc) buffer with kc = `grid.kept_columns`:
    the kept columns of dealiased `rfft2` coefficients.  Its first `depth`
    planes are transformed, and the x-pass overwrites them.  Real space is
    visited in blocks of x-rows, as many as `_BLOCK_BYTES` holds for all of
    the buffer's planes (so calls of different depths share one block
    buffer): `products(real, out)` reads a block's real planes
    (depth, rows, n) and writes its products into `out` (count, rows, n).
    Both blocks are `scratch` buffers.

    Returns a fresh, masked (count, n, n//2+1) array, bit-identical to
    `rfft2` of the full-width products times the mask, and, with `keep` (a
    list of plane indices), a fresh (len(keep), n, n) array of those real
    planes, bit-identical to their `irfft2`; else None."""
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
            out = np.empty((count, n, n // 2 + 1), complex)
            reals = None if keep is None else np.empty((len(keep), n, n))
        if reals is not None:
            for i, plane in enumerate(keep):
                reals[i, start:stop] = real[plane]
        np.fft.rfft(prods, axis=-1, norm="forward", out=out[:, start:stop])
    np.fft.fft(out[..., :kc], axis=-2, norm="forward", out=out[..., :kc])
    out *= grid.mask
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
    `rfft2` half spectrum: row i holds the x wavenumber in `fftfreq` order,
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


def same_grid(g1: SpectralGrid, g2: SpectralGrid) -> bool:
    return g1 is g2 or (g1.n == g2.n and g1.length == g2.length)


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
    """A real field on `grid`: `values` is (n, n) for a scalar and (2, n, n)
    for a vector; `coeffs` is its `rfft2` half spectrum."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        if self.values.shape not in ((n, n), (2, n, n)):
            raise ValueError(f"field values have shape {self.values.shape}, "
                             f"expected {(n, n)} or {(2, n, n)}")
        if np.iscomplexobj(self.values):
            raise ValueError("field values must be a real array")

    @property
    def coeffs(self) -> np.ndarray:
        return rfft2(self.values)

    def component(self, i: int) -> "Field":
        return Field(self.grid, self.values[i])


def scalar_field(grid, data) -> Field:
    """A scalar `Field`; a number gives a constant field."""
    data = np.asarray(data, dtype=float)
    if data.ndim == 0:
        data = np.full((grid.n, grid.n), data)
    return Field(grid, data)


def vector_field(grid, data) -> Field:
    return Field(grid, np.asarray(data, dtype=float))


def _from_coeffs(f: Field, coeffs: np.ndarray) -> Field:
    """The field on `f`'s grid whose half spectrum is `coeffs`."""
    return Field(f.grid, irfft2(coeffs, f.grid.n))


def project(grid: SpectralGrid, vh: np.ndarray) -> None:
    """Leray-project, in place, the velocity pair vh[..., 0, :, :] and
    vh[..., 1, :, :] of half-spectrum coefficients, batched over any leading
    axes; mode (0, 0) is unchanged.

    Uses the derivative wavenumbers (Nyquist zeroed), so the result is
    divergence-free in the same convention `divergence` measures and the
    projection of a real field stays real.  The one projection: the
    stepper, the Picard map and `leray_project` all call it."""
    v1, v2 = vh[..., 0, :, :], vh[..., 1, :, :]
    kd = (grid.kx * v1 + grid.ky * v2) * grid.inv_k_sq_d
    v1 -= grid.kx * kd
    v2 -= grid.ky * kd


def decay(grid: SpectralGrid, diffusivity: float, damping: float, t) -> np.ndarray:
    """The per-mode heat factor exp(-(diffusivity*|k|^2 + damping) * t); a
    time array `t` of shape (m, 1, 1) gives one factor per time.  The one
    heat exponential: `heat_semigroup` and the Picard map call it."""
    return np.exp(-(diffusivity * grid.k_sq + damping) * t)


def ddx(f: Field, axis: int) -> Field:
    """Spectral derivative along axis 1 (x) or 2 (y).

    Exact for band-limited fields; the Nyquist mode is zeroed (it is masked
    by the dealias rule anyway).
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    mult = f.grid.ikx if axis == 1 else f.grid.iky
    return _from_coeffs(f, mult * f.coeffs)


def laplacian(f: Field) -> Field:
    return _from_coeffs(f, -f.grid.k_sq * f.coeffs)


def dealias(f: Field) -> Field:
    """Zero every masked mode; survivors are untouched."""
    return _from_coeffs(f, f.grid.mask * f.coeffs)


def leray_project(v: Field) -> Field:
    """Per-mode projection onto divergence-free fields (`project`)."""
    vh = v.coeffs
    project(v.grid, vh)
    return _from_coeffs(v, vh)


def divergence(v: Field) -> Field:
    g = v.grid
    vh = v.coeffs
    return _from_coeffs(v, g.ikx * vh[0] + g.iky * vh[1])


def heat_semigroup(f: Field, diffusivity: float, damping: float, t: float) -> Field:
    """Apply exp(-(diffusivity*|k|^2 + damping) * t) per mode (`decay`)."""
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be nonnegative and finite")
    if not (0.0 <= diffusivity < math.inf and 0.0 <= damping < math.inf):
        raise ValueError("diffusivity and damping must be nonnegative and finite")
    return _from_coeffs(f, decay(f.grid, diffusivity, damping, t) * f.coeffs)


def l2_scale(grid: SpectralGrid, coeffs: np.ndarray) -> float:
    """sqrt of the sum of |f_k|^2 over the full spectrum, from half-spectrum
    coefficients (the root mean square of the field, by Parseval)."""
    return float(np.sqrt(np.sum(grid.weights * np.abs(coeffs) ** 2)))
