"""Independent numerical oracles used to freeze expected values in tests.

These deliberately avoid the library's spectral machinery: finite
differences on periodic grids, brute-force pointwise eigensolves, refined
quadrature, closed-form ODE solutions, full-spectrum `np.fft.fft2`
references of the field operators, and `mild_map`, the Picard map's
velocity and stress planes as direct trapezoid Duhamel sums of real-space
products.
"""

import numpy as np

# 8th-order centered first-derivative stencil.
_D1_COEFFS = (
    (1, 4.0 / 5.0), (2, -1.0 / 5.0), (3, 4.0 / 105.0), (4, -1.0 / 280.0),
)


def fd_derivative(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """8th-order periodic central difference along array axis 0 or 1."""
    out = np.zeros_like(values)
    for shift, coeff in _D1_COEFFS:
        out += coeff * (np.roll(values, -shift, axis=axis) - np.roll(values, shift, axis=axis))
    return out / h


def fd_derivative_2nd(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """2nd-order periodic central difference."""
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)


def fd_laplacian_2nd(values: np.ndarray, h: float) -> np.ndarray:
    """2nd-order 5-point periodic Laplacian."""
    return (
        np.roll(values, 1, 0) + np.roll(values, -1, 0)
        + np.roll(values, 1, 1) + np.roll(values, -1, 1)
        - 4.0 * values
    ) / (h * h)


def quad_mean(fn, length: float, m: int = 512) -> float:
    """Mean of fn(x, y) over the periodic square by uniform sampling, which
    integrates trigonometric polynomials of degree below m exactly."""
    x = np.arange(m) * (length / m)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return float(np.mean(fn(xx, yy)))


def quad_integral(fn, length: float, m: int = 512) -> float:
    return quad_mean(fn, length, m) * length * length


def eig_min_scan(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Smaller eigenvalue of [[c/2+a, b], [b, c/2-a]] at every point via a
    dense symmetric eigensolver."""
    mats = np.moveaxis(np.array([[0.5 * c + a, b], [b, 0.5 * c - a]]), (0, 1), (-2, -1))
    return np.linalg.eigvalsh(mats)[..., 0]


def relaxation_exact(t: float, c0: float, rho0: float, k: float) -> float:
    """Uniform-state trace under dc/dt = -2k c + 4k rho0."""
    return 2.0 * rho0 + (c0 - 2.0 * rho0) * np.exp(-2.0 * k * t)


def taylor_green_velocity(x, y, amplitude=1.0):
    return np.stack([
        amplitude * np.sin(x) * np.cos(y),
        -amplitude * np.cos(x) * np.sin(y),
    ])


def measured_orders(errors):
    """log2 ratios of successive errors under halving refinement."""
    return [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]


# --- full-spectrum references of the field operators ------------------------
# Each takes and returns real arrays (n, n) or (2, n, n) on [0, L)^2 and runs
# one complex np.fft.fft2 / ifft2 pair over the full (n, n) spectrum.  Odd
# derivatives and the Leray projection use the wavenumbers with the Nyquist
# frequency zeroed; the Laplacian and the heat kernel use the true |k|^2.


def _fft2_tables(n: int, length: float):
    kint = np.rint(np.fft.fftfreq(n, 1.0 / n))
    ki, kj = np.meshgrid(kint, kint, indexing="ij")
    scale = 2.0 * np.pi / length
    kx = np.where(np.abs(ki) == n // 2, 0.0, scale * ki)
    ky = np.where(np.abs(kj) == n // 2, 0.0, scale * kj)
    k_sq = scale * scale * (ki * ki + kj * kj)
    mask = (3 * np.abs(ki) <= n) & (3 * np.abs(kj) <= n)
    return kx, ky, k_sq, mask


def _reciprocal(k_sq):
    return np.divide(1.0, k_sq, out=np.zeros_like(k_sq), where=k_sq > 0.0)


def _fft2_apply(values, mult):
    return np.fft.ifft2(mult * np.fft.fft2(values)).real


def fft2_ddx(values, axis, length):
    kx, ky, _, _ = _fft2_tables(values.shape[-1], length)
    return _fft2_apply(values, 1j * (kx if axis == 1 else ky))


def fft2_laplacian(values, length):
    _, _, k_sq, _ = _fft2_tables(values.shape[-1], length)
    return _fft2_apply(values, -k_sq)


def fft2_dealias(values, length):
    _, _, _, mask = _fft2_tables(values.shape[-1], length)
    return _fft2_apply(values, mask)


def fft2_heat(values, diffusivity, damping, t, length):
    _, _, k_sq, _ = _fft2_tables(values.shape[-1], length)
    return _fft2_apply(values, np.exp(-(diffusivity * k_sq + damping) * t))


def fft2_divergence(v, length):
    kx, ky, _, _ = _fft2_tables(v.shape[-1], length)
    vh = np.fft.fft2(v)
    return np.fft.ifft2(1j * kx * vh[0] + 1j * ky * vh[1]).real


def fft2_leray(v, length):
    kx, ky, _, _ = _fft2_tables(v.shape[-1], length)
    vh = np.fft.fft2(v)
    kd = (kx * vh[0] + ky * vh[1]) * _reciprocal(kx * kx + ky * ky)
    return np.fft.ifft2(np.stack([vh[0] - kx * kd, vh[1] - ky * kd])).real


# --- the mild (Duhamel) map ---------------------------------------------------


def mild_map(path, initial, t0, params, length):
    """The velocity and stress planes of one application of the mild map,
    as full `np.fft.fft2` spectra (m, 5, n, n) divided by n^2, from a path
    of real planes (m, 6, n, n) ordered (u1, u2, a, b, c, rho) on m uniform
    nodes over [0, t0] and real initial data (6, n, n).  `params` carries
    nu, kappa, k and bigK.  At node t_j:

        u     = heat_u(t_j) u0 + int_0^t_j heat_u(t_j - s) P[-(u.grad u) + K div sigma] ds
        sigma = heat_s(t_j) sigma0 + int_0^t_j heat_s(t_j - s) [G sigma + sigma G^T
                - u.grad sigma + 2k rho I] ds

    with G_ij = d_j u_i, the products formed pointwise on the grid and
    dealiased, sigma = [[c/2 + a, b], [b, c/2 - a]] as matrices, and each
    integral a direct trapezoid sum over the nodes up to t_j."""
    m, _, n, _ = path.shape
    kx, ky, k_sq, mask = _fft2_tables(n, length)
    ik = np.stack([1j * kx, 1j * ky])

    def spectrum(values):
        return np.fft.fft2(values) / n ** 2

    def grad(values):
        """d_j of real planes (..., n, n), j as a new axis before the grid."""
        return np.fft.ifft2(ik * np.fft.fft2(values)[..., None, :, :]).real

    u, a, b, c, rho = path[:, 0:2], path[:, 2], path[:, 3], path[:, 4], path[:, 5]
    sigma = np.stack([np.stack([0.5 * c + a, b], 1), np.stack([b, 0.5 * c - a], 1)], 1)
    du, dsigma = grad(u), grad(sigma)
    force = (-np.einsum("mjxy,mijxy->mixy", u, du)
             + params.bigK * np.einsum("mijjxy->mixy", dsigma))
    q = (np.einsum("mikxy,mkjxy->mijxy", du, sigma) + np.einsum("mikxy,mjkxy->mijxy", sigma, du)
         - np.einsum("mlxy,mijlxy->mijxy", u, dsigma)
         + 2.0 * params.k * rho[:, None, None] * np.eye(2)[:, :, None, None])
    stress = np.stack([0.5 * (q[:, 0, 0] - q[:, 1, 1]), q[:, 0, 1], q[:, 0, 0] + q[:, 1, 1]], 1)

    fh = mask * spectrum(force)
    kd = (kx * fh[:, 0] + ky * fh[:, 1]) * _reciprocal(kx * kx + ky * ky)
    fh -= np.stack([kx, ky]) * kd[:, None]
    integrands = np.concatenate([fh, mask * spectrum(stress)], axis=1)

    rates = np.concatenate([np.repeat(params.nu * k_sq[None], 2, 0),
                            np.repeat((params.kappa * k_sq + 2.0 * params.k)[None], 3, 0)])
    times = np.linspace(0.0, t0, m)
    out = np.exp(-rates * times[:, None, None, None]) * spectrum(initial[0:5])
    for j in range(1, m):
        kernel = np.exp(-rates * (times[j] - times[:j + 1, None, None, None]))
        out[j] += np.trapezoid(kernel * integrands[:j + 1], times[:j + 1], axis=0)
    return out
