"""Independent reference routes that only the tests use.

None of these is on a computation path of the library. They check it from
a different direction:

- ncx2_pdf takes the noncentral chi-square density through the scaled
  Bessel I0, not through the Poisson mixture of specfun.Ncx2Family, so it
  is the oracle of Ncx2Family.pdf and of the derivative identity of
  acceptance criterion 8.
- sample_channels forms the whole (count, N) complex channel array, where
  montecarlo reduces each block of draws to its max port gain at once, so
  it is the full-channel oracle of montecarlo._max_gains and of the
  worker-count determinism of criterion 9.
- dense_factor takes the sampling matrix from numpy's dense eigh of the
  whole matrix, where channel.eigen_factor certifies the leading eigenpairs
  matrix-free, so it is the oracle of the factor and of the draws past
  a thousand ports.
"""
import math

import numpy as np
from scipy import linalg

from fblfas import parallel
from fblfas.channel import EIGENVALUE_CLIP, _channel_blocks

# Below the seam the ascending series converges with every term positive, so
# there is no cancellation; the largest intermediate at x = 50 is ~3e19, far
# from overflow. Above the seam the Hankel asymptotic series reaches machine
# precision in well under 25 terms (its error floor ~e^(-2x) is negligible
# for x >= 50).
_SERIES_SEAM = 50.0


def _i0_scaled_series(x):
    # e^(-x) * sum_k (x^2/4)^k / (k!)^2
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 121):
        term = term * q / (k * k)
        total += term
        if np.all(term <= total * 1e-18):
            break
    return total * np.exp(-x)


def _i0_scaled_asymptotic(x):
    # (2 pi x)^(-1/2) * sum_k ((2k-1)!!)^2 / (k! (8x)^k)
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 26):
        term = term * (2 * k - 1) ** 2 / (8.0 * k * x)
        total += term
        if np.all(term <= total * 1e-18):
            break
    return total / np.sqrt(2.0 * np.pi * x)


def bessel_i0_scaled(x):
    """Evaluate e^(-x) * I0(x) for finite x >= 0.

    Ascending power series below x = 50, scaled asymptotic expansion above;
    the two branches agree to better than 1e-13 relative at the seam.
    Accepts a scalar or an ndarray; returns a float for scalar input.
    The result lies in (0, 1] and decays like 1/sqrt(2 pi x).
    """
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    small = arr < _SERIES_SEAM
    if np.any(small):
        out[small] = _i0_scaled_series(arr[small])
    big = ~small
    if np.any(big):
        out[big] = _i0_scaled_asymptotic(arr[big])
    if scalar:
        return float(out[0])
    return out.reshape(np.shape(x))


def ncx2_pdf(x, lam):
    """Density (1/2) e^(-(x+lam)/2) I0(sqrt(lam x)) at finite x, lam >= 0.

    Evaluated as exp(-(sqrt(x) - sqrt(lam))^2 / 2) * i0_scaled(sqrt(lam x)) / 2,
    which keeps the exponent non-positive for any argument size.
    """
    rx = math.sqrt(float(x))
    rl = math.sqrt(float(lam))
    return 0.5 * math.exp(-0.5 * (rx - rl) ** 2) * bessel_i0_scaled(rx * rl)


def sample_channels(factor, sigma2, count, seed, workers=None):
    """Draw count correlated channel vectors g = Q_r Lambda_r^(1/2) g0.

    g0 holds r i.i.d. circular complex Gaussian mode weights of variance
    sigma2 (split evenly between real and imaginary parts), one per column
    of the N x r factor (channel.eigen_factor's), so each port's |g_k|^2 is
    exponential with mean sigma2. The draws come from channel._channel_blocks,
    the kernel montecarlo's gain draws use, with the same chunk generators.

    Returns a (count, N) complex array, bit-identical for any worker count.
    """
    factor_t = np.asarray(factor, dtype=float).T

    def task(index, size):
        out = np.empty((size, factor_t.shape[1]), dtype=complex)
        rng = parallel.chunk_rng(seed, index)
        for rows, g in _channel_blocks(rng, size, factor_t, sigma2):
            part = out[rows]
            part.real, part.imag = g[:, 0], g[:, 1]
        return out

    return np.concatenate(parallel.run_chunks(task, count, workers), axis=0)


def dense_factor(corr):
    """The N x r sampling matrix from the dense eigh of the whole matrix.

    The columns whose eigenvalues reach EIGENVALUE_CLIP of the largest are
    kept, in descending order, by the expression eigen_factor evaluated at
    every N before it found its eigenpairs matrix-free.
    """
    vals, vecs = np.linalg.eigh(linalg.toeplitz(corr.first_row))
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    rank = int(np.count_nonzero(vals >= EIGENVALUE_CLIP * float(vals[0])))
    return vecs[:, :rank] * np.sqrt(vals[:rank])[None, :]
