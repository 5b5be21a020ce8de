"""Spatially correlated channel model for a linear fluid antenna.

N ports share one RF chain on a segment of length W (in wavelengths), so
adjacent ports sit W/(N-1) apart and the field correlation between ports a
distance of n spacings apart is the unnormalized sinc

    a(n) = sin(z)/z,    z = 2 pi n W / (N - 1),

which stacks into a symmetric Toeplitz correlation matrix. Channels are
drawn, a block at a time by _channel_blocks, the one sampling kernel that
montecarlo's gain draws run on, through the eigenvalue factorization
g = Q_r Lambda_r^(1/2) g0, restricted to the r eigenvalues that survive
the round-off clip: g0 holds r i.i.d. circular complex Gaussians, not N.
The sinc kernel's spectrum plunges after about 2W + 1 dominant modes (the
discrete prolate spheroidal spectrum) and drops below the clip a few modes
later, so r is 7 at W = 0.5 for any N from 10 to 10^5 and 16 at W = 3
from N = 56, and each draw costs O(rN) instead of O(N^2); the clipped
columns contribute exactly zero, so the channel's distribution is the same.
The correlation structure is condensed into a small block model (per-block
size L_b, shared intra-block correlation mu^2) for the analytical
distribution work. The block fit and the sampling factor share one
matrix-free search for the leading eigenpairs from the first row alone
(_leading_spectrum); it builds the N x N matrix only where a dense solve
is cheaper (tiny N, N / 8 or more modes to find, no plunge).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = [
    "SystemConfig",
    "ToeplitzCorrelation",
    "BlockModel",
    "build_correlation",
    "eigen_factor",
    "fit_block_model",
]

# Eigenvalues below this fraction of the largest are treated as numerical
# zeros of the rank-deficient sinc kernel.
EIGENVALUE_CLIP = 1e-12

# Block fitting: an eigenvalue is significant when it reaches both this
# fraction of the largest eigenvalue and the spectrum's average (trace/N).
# A mode below the average of a trace-N spectrum carries no block's worth
# of ports.
BLOCK_SIGNIFICANCE = 1e-2

# Channel draws are formed in blocks of about this many port entries
# (max(1, _DRAW_ENTRIES // N) draws, 512 KiB of real and imaginary parts), so
# a chunk never holds its whole count x N channel array and each block stays
# in cache while it is reduced. A screened pass (_channel_blocks' cap) draws
# the normals of max(block, _DRAW_ENTRIES // r) draws at a time, 512 KiB
# again, and forms the draws that pass its screen a block at a time. The
# channels of a sweep read one normal stream per chunk, which keeps about
# one such request buffered, never the chunk's count x 2r normals.
_DRAW_ENTRIES = 1 << 15

# A draw's mean port gain must exceed a screening cap by this relative
# margin before the draw is left unformed. The mean never exceeds the max
# port gain; computed, it can overshoot the formed max only by about r times
# the factor columns' orthogonality error plus a few roundings (it stays
# within 1.3e-15 of the formed mean for N = 1 to 1000, W = 0.5 and 3), far
# below this margin.
_SCREEN_MARGIN = 1e-9

# Leading-spectrum search (_leading_spectrum): start block size, Ritz
# residual target relative to the largest Ritz value, the share of N that
# significant Ritz values must reach for the dense solve to take over, and
# the decades the sinc spectrum falls per mode below 1e-2 of its largest at
# small W (7 modes reach the clip at W = 0.5 and 9 at W = 1, not 2W + 1).
_START_COLUMNS = 8
_RITZ_RESIDUAL = 1e-9
_DENSE_SHARE = 8
_PLUNGE_DECADES = 1.75


@dataclass(frozen=True)
class SystemConfig:
    """Operating point of one finite-blocklength transmission setup.

    Parameters
    ----------
    ports : int
        Number of selectable ports N. N = 1 is accepted as a degenerate
        single-antenna case for benchmark and validation paths; the spatial
        correlation model itself needs N >= 2.
    antenna_length : float
        Aperture length W in wavelengths.
    users : int
        Number of active codewords U.
    blocklength : int
        Finite blocklength M; the codeword variance is pinned to 1/M.
    channel_variance : float
        Per-port complex channel variance sigma^2 (default 2, the scale at
        which the gain distribution takes its reference form).
    noise_variance : float
        Noise variance sigma_eta^2; the SNR is channel_variance / noise_variance.
    outage_threshold : float
        SINR threshold gamma_th of the outage event.
    """

    ports: int
    antenna_length: float
    users: int
    blocklength: int
    channel_variance: float = 2.0
    noise_variance: float = 1.0
    outage_threshold: float = 1e-3

    def __post_init__(self):
        if not isinstance(self.ports, (int, np.integer)) or self.ports < 1:
            raise ValueError("ports must be a positive integer")
        if not (self.antenna_length > 0.0 and math.isfinite(self.antenna_length)):
            raise ValueError("antenna_length must be positive and finite")
        if not isinstance(self.users, (int, np.integer)) or self.users < 1:
            raise ValueError("users must be a positive integer")
        if not isinstance(self.blocklength, (int, np.integer)) or self.blocklength < 1:
            raise ValueError("blocklength must be a positive integer")
        for name in ("channel_variance", "noise_variance", "outage_threshold"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")

    @property
    def codeword_variance(self) -> float:
        return 1.0 / self.blocklength

    @property
    def snr(self) -> float:
        return self.channel_variance / self.noise_variance

    @classmethod
    def from_snr_db(cls, ports, antenna_length, users, blocklength, snr_db,
                    channel_variance=2.0, outage_threshold=1e-3):
        """Build a config with the noise variance set from an SNR in dB."""
        noise = channel_variance / 10.0 ** (float(snr_db) / 10.0)
        return cls(
            ports=ports,
            antenna_length=antenna_length,
            users=users,
            blocklength=blocklength,
            channel_variance=channel_variance,
            noise_variance=noise,
            outage_threshold=outage_threshold,
        )


def _toeplitz(row: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix T[i, j] = row[|i - j|].

    Row i is read from the windows of [row reversed, row[1:]], so no index
    matrix as large as T is built on the way.
    """
    mirrored = np.concatenate([row[::-1], row[1:]])
    return np.lib.stride_tricks.sliding_window_view(mirrored, row.size)[::-1].copy()


@dataclass(frozen=True)
class ToeplitzCorrelation:
    """Port correlation, the symmetric Toeplitz matrix of its first row.

    Only the row is kept; the block fit and the sampling factor find the
    leading eigenpairs from it (_leading_spectrum).
    """

    size: int
    first_row: np.ndarray

    def __post_init__(self):
        if np.shape(self.first_row) != (self.size,):
            raise ValueError("first_row must hold one value per port (size)")


@dataclass(frozen=True)
class BlockModel:
    """Block-diagonal stand-in for the full correlation structure."""

    block_sizes: tuple
    mu2: float

    def __post_init__(self):
        if not self.block_sizes:
            raise ValueError("block_sizes must list at least one block")
        if any(s < 1 for s in self.block_sizes):
            raise ValueError("every block size must be >= 1")
        if not (0.0 < self.mu2 < 1.0):
            raise ValueError("mu2 must lie strictly inside (0, 1)")

    @property
    def block_count(self) -> int:
        return len(self.block_sizes)

    @property
    def ports(self) -> int:
        return int(sum(self.block_sizes))


def build_correlation(ports: int, width: float) -> ToeplitzCorrelation:
    """Toeplitz correlation of N uniformly spaced ports on a length-W segment.

    Requires ports >= 2 (the spacing W/(N-1) is undefined otherwise).
    """
    if not isinstance(ports, (int, np.integer)) or ports < 2:
        raise ValueError("ports must be an integer >= 2")
    if not (width > 0.0 and math.isfinite(width)):
        raise ValueError("width must be positive and finite")
    n = np.arange(ports)
    z = 2.0 * np.pi * n * width / (ports - 1)
    row = np.ones(ports)
    row[1:] = np.sin(z[1:]) / z[1:]
    return ToeplitzCorrelation(size=int(ports), first_row=row)


def eigen_factor(corr: ToeplitzCorrelation) -> np.ndarray:
    """Q_r Lambda_r^(1/2), the N x r sampling matrix of the correlation.

    The sinc kernel is numerically rank deficient, so the bottom of the
    spectrum comes out as tiny values of either sign; only the r columns
    whose eigenvalues reach 1e-12 (EIGENVALUE_CLIP) of the largest are
    kept, in descending order of eigenvalue. The others would contribute
    nothing to any draw. The eigenpairs come from _leading_spectrum,
    certified down to the clip, so the N x N matrix is built only where
    the search hands the spectrum to the dense eigh.
    """
    vals, vecs = _leading_spectrum(corr.first_row, EIGENVALUE_CLIP, vectors=True)
    if not (vals[0] > 0.0):
        raise NumericError("correlation matrix has no positive eigenvalue")
    rank = int(np.count_nonzero(vals >= EIGENVALUE_CLIP * float(vals[0])))
    return vecs[:, :rank] * np.sqrt(vals[:rank])[None, :]


def _channel_blocks(normals, count: int, factor_t: np.ndarray, sigma2: float, cap=None,
                    bounds=None):
    """Yield (rows, block) over count channel draws, a few at a time.

    factor_t is the r x N transposed sampling matrix, and normals the source
    of the standard normals: a Generator, or anything whose
    standard_normal(shape) returns the next prod(shape) values of one stream
    (montecarlo's chunk stream, which several channels read). Each draw
    takes 2r standard normals in turn, the real parts of its r mode weights
    and then the imaginary ones, so the stream does not depend on the block
    size, and a rank-r channel reads the first 2r values per draw of a
    stream that a channel of higher rank reads further.
    Both parts come from one real product of the stacked weights with the
    factor, never a complex one; a block is a (rows, 2, N) array of the real
    and imaginary parts of the draws that rows (a slice) selects.

    With a cap, draws are screened before they are formed, and bounds (an
    array of count entries) receives each screened draw's mean port gain
    sum_j e_j (x_j^2 + y_j^2) over its mode weights x + iy, e_j being the
    squared norm of row j of the scaled factor over N. The factor's columns
    are orthogonal, so this is (1/N) sum_k |g_k|^2, a lower bound on the max
    port gain that costs 2r products. Only the draws whose mean is at most
    cap (1 + _SCREEN_MARGIN) are formed and yielded, rows then being an
    index array; the others keep their mean in bounds. A batch of normals
    that the screen does not thin ends it: the chunk's later draws are all
    formed, as without a cap, and get no bound. A BLAS product of some draws
    alone can round an entry differently from the product of a whole block
    (4% of the gains move by an ulp at N = 50, r = 16), so formed gains can
    differ from unscreened ones in the last bit.
    """
    rank, ports = factor_t.shape
    scaled = np.ascontiguousarray(math.sqrt(0.5 * sigma2) * factor_t)
    step = max(1, _DRAW_ENTRIES // ports)
    start = 0
    if cap is not None:
        weights = np.tile(np.einsum("ij,ij->i", scaled, scaled) / ports, 2)
        limit = cap + _SCREEN_MARGIN * abs(cap)
        batch = max(step, _DRAW_ENTRIES // rank)
        thinned = True
        while thinned and start < count:
            z = normals.standard_normal((min(batch, count - start), 2 * rank))
            mean = np.square(z) @ weights
            bounds[start:start + len(z)] = mean
            kept = np.flatnonzero(mean <= limit)
            thinned = kept.size < len(z)
            z = z[kept].reshape(-1, rank)
            for i in range(0, kept.size, step):
                rows = kept[i:i + step]
                yield start + rows, (z[2 * i:2 * (i + rows.size)] @ scaled).reshape(-1, 2, ports)
            start += batch
    for start in range(start, count, step):
        rows = min(step, count - start)
        z = normals.standard_normal((2 * rows, rank))
        yield slice(start, start + rows), (z @ scaled).reshape(rows, 2, ports)


def _leading_spectrum(row: np.ndarray, relative: float, floor: float = 0.0,
                      vectors: bool = False):
    """Leading eigenpairs, descending, of the symmetric Toeplitz matrix of row.

    Returns (values, vectors): every eigenvalue at or above thr =
    max(relative * lambda_max, floor), possibly some below, and with vectors
    asked for their orthonormal eigenvectors as columns (else None). The
    matrix must be positive semidefinite with row[0] > 0, as a correlation
    is; the block fit asks for max(1e-2 lambda_max, row[0]), eigen_factor
    for EIGENVALUE_CLIP lambda_max. Products with the matrix go through its
    circulant embedding of size 2N (one real FFT of [row, 0, reversed
    row[1:]] gives its spectrum), so a step costs O(N p log N) for p columns.
    Block subspace iteration with Rayleigh-Ritz runs on p columns (p = 8
    from a fixed seed) and stops when every Ritz value theta_i >= thr / 2
    has residual <= 1e-9 theta_1 and the trace left over, N r_0 -
    sum theta_i, is below thr: Ritz values never exceed the eigenvalues they
    interlace and none is negative, so that trace bounds each one not found.
    Otherwise p doubles: the Ritz vectors times the matrix (one
    subspace-iteration step) plus p fresh random columns. The dense eigvalsh
    (eigh for vectors) runs instead where N / 8 or more eigenvalues are
    expected to reach thr: certifying them needs blocks of N / 4 columns or
    more, and one step on those costs about half the dense solve (N = 1000
    to 3000, one thread). That count is estimated up front as the
    participation ratio (N r_0)^2 / ||T||_F^2 (within 0.4 of the 2W + 1
    modes above 1e-2 of the largest on sinc rows; ||T||_F^2 = N r_0^2 +
    2 sum_k (N - k) r_k^2) plus one mode per _PLUNGE_DECADES decades that
    relative lies below 1e-2, so such a spectrum goes dense before any step
    (a first step at N = 2000, W = 200 made the fit 1.17 s against 0.74 s),
    and backed up after each step by the count of Ritz values reaching thr;
    tiny N (2p >= N) and spectra without a plunge (W near (N - 1) / 2) go
    dense too.
    """
    n = row.size
    r0 = float(row[0])
    frobenius2 = n * r0 * r0 + 2.0 * float(np.dot(np.arange(n - 1, 0, -1), row[1:] ** 2))
    plunge = math.log10(BLOCK_SIGNIFICANCE / relative) / _PLUNGE_DECADES
    if _DENSE_SHARE * ((n * r0) ** 2 + plunge * frobenius2) < n * frobenius2:
        spectrum = np.fft.rfft(np.concatenate([row, [0.0], row[:0:-1]])).real[:, None]

        def apply(x):
            return np.fft.irfft(np.fft.rfft(x, 2 * n, axis=0) * spectrum, 2 * n, axis=0)[:n]

        rng = np.random.default_rng(0)
        p = _START_COLUMNS
        x = rng.standard_normal((n, p))
        while 2 * p < n:
            q, _ = np.linalg.qr(x)
            tq = apply(q)
            # q^T T q from one syrk (numpy's z.T @ z): unlike a gemm over N it
            # keeps its bits at any BLAS thread count, as do results at p < 128
            z = np.hstack([q, tq])
            h = (z.T @ z)[:p, p:]
            theta, s = np.linalg.eigh(0.5 * (h + h.T))
            theta, s = theta[::-1], s[:, ::-1]
            v, tv = q @ s, tq @ s
            residual = np.linalg.norm(tv - v * theta, axis=0)
            threshold = max(relative * float(theta[0]), floor)
            converged = np.all(residual[theta >= 0.5 * threshold] <= _RITZ_RESIDUAL * theta[0])
            if converged and n * r0 - float(theta.sum()) < threshold:
                return theta, (v if vectors else None)
            significant = np.count_nonzero(theta >= threshold * (1.0 - 1e-9))
            if _DENSE_SHARE * significant >= n:
                break
            x = np.hstack([tv, rng.standard_normal((n, p))])
            p *= 2
    if vectors:
        vals, vecs = np.linalg.eigh(_toeplitz(row))
        return vals[::-1], vecs[:, ::-1]
    return np.linalg.eigvalsh(_toeplitz(row))[::-1], None


def fit_block_model(corr: ToeplitzCorrelation, mu2: float) -> BlockModel:
    """Condense a correlation matrix into a block model.

    The number of blocks B is the count of significant eigenvalues: those
    reaching both 1e-2 of the largest eigenvalue and the spectral average
    trace/N (the first row's lag-0 entry). For the sinc kernel this
    recovers the familiar 2W+1 dominant mode count (and B = N for an
    identity correlation). Only that leading part of the spectrum is
    computed, matrix-free from the first row (_leading_spectrum). Sizes
    follow a dominant-first allocation: L_1 = N - B + 1 and every other
    block keeps a single port, so sum(L_b) = N exactly.

    The allocation is deliberately not eigenvalue-proportional. Near mu2 = 1
    each block is close to rank one, so B alone sets the effective diversity
    order while the sizes only modulate the within-block selection boost.
    Concentrating that boost in one large block reproduces the max-gain
    distribution of the exact Toeplitz channel markedly better than
    proportional splits (sup-norm CDF error around 0.01 versus 0.03 to 0.08
    on the N=10, W=0.5 and N=50, W=1 reference setups at mu2 = 0.97).

    mu2 is the shared intra-block correlation, valid in (0, 1); values in
    (0.95, 0.99) are the regime this model is meant for.
    """
    if not (0.0 < mu2 < 1.0):
        raise ValueError("mu2 must lie strictly inside (0, 1)")
    n = corr.size
    mean = float(corr.first_row[0])
    vals = _leading_spectrum(corr.first_row, BLOCK_SIGNIFICANCE, mean)[0] if mean > 0.0 else None
    # a largest eigenvalue at the mean or above makes b >= 1 below
    if vals is None or not (vals[0] >= mean * (1.0 - 1e-9)):
        warnings.warn("degenerate correlation spectrum; falling back to one block")
        return BlockModel(block_sizes=(n,), mu2=float(mu2))

    threshold = max(BLOCK_SIGNIFICANCE * float(vals[0]), mean)
    # the relative slack keeps eigenvalues that sit on the threshold up to
    # round-off (an identity-like spectrum has all of them at the mean)
    b = int(np.sum(vals >= threshold * (1.0 - 1e-9)))
    sizes = (n - b + 1,) + (1,) * (b - 1)
    return BlockModel(block_sizes=sizes, mu2=float(mu2))
