"""Spatially correlated channel model for a linear fluid antenna.

N ports share one RF chain on a segment of length W (in wavelengths), so
adjacent ports sit W/(N-1) apart and the field correlation between ports a
distance of n spacings apart is the unnormalized sinc

    a(n) = sin(z)/z,    z = 2 pi n W / (N - 1),

which stacks into a symmetric Toeplitz correlation matrix. Channels are
drawn through the eigenvalue factorization g = Q_r Lambda_r^(1/2) g0,
restricted to the r eigenvalues that survive the round-off clip: g0 holds
r i.i.d. circular complex Gaussians, not N. The sinc kernel's spectrum
plunges after about 2W + 1 dominant modes (the discrete prolate spheroidal
spectrum) and drops below the clip a few modes later, so r is 7 at W = 0.5
for any N from 10 to 1000 and 16 at N = 1000, W = 3, and each draw costs
O(rN) instead of O(N^2); the clipped columns contribute exactly zero, so
the channel's distribution is the same. The correlation structure is
condensed into a small block model (per-block size L_b, shared
intra-block correlation mu^2) for the analytical distribution work. The
block fit is matrix-free: it finds the leading eigenvalues from the first
row alone, so only the Monte Carlo factorization ever builds the N x N
matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import toeplitz

from . import parallel
from .errors import NumericError

__all__ = [
    "SystemConfig",
    "ToeplitzCorrelation",
    "EigenFactor",
    "BlockModel",
    "build_correlation",
    "eigen_factor",
    "sample_channels",
    "fit_block_model",
    "save_correlation",
    "load_correlation",
    "save_block_model",
    "load_block_model",
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
# in cache while it is reduced.
_DRAW_ENTRIES = 1 << 15

# Leading-spectrum search (_leading_eigenvalues): start block size, Ritz
# residual target relative to the largest Ritz value, and the share of N
# that significant Ritz values must reach for the dense solve to take over.
_START_COLUMNS = 8
_RITZ_RESIDUAL = 1e-9
_DENSE_SHARE = 8


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


@dataclass(frozen=True)
class ToeplitzCorrelation:
    """Port correlation, the symmetric Toeplitz matrix of its first row.

    The dense N x N matrix is built on first access and then kept; the
    block fit never asks for it, only the Monte Carlo factorization does.
    """

    size: int
    first_row: np.ndarray

    def __post_init__(self):
        if np.shape(self.first_row) != (self.size,):
            raise ValueError("first_row must hold one value per port (size)")

    @cached_property
    def matrix(self) -> np.ndarray:
        return toeplitz(self.first_row)


@dataclass(frozen=True)
class EigenFactor:
    """Eigendecomposition of a correlation matrix, eigenvalues descending."""

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray

    @property
    def factor(self) -> np.ndarray:
        """Q_r Lambda_r^(1/2), the N x r sampling matrix.

        Only the r columns whose eigenvalues were not clipped to zero are
        kept; the others contribute nothing to any draw.
        """
        rank = int(np.count_nonzero(self.eigenvalues))
        return self.eigenvectors[:, :rank] * np.sqrt(self.eigenvalues[:rank])[None, :]


@dataclass(frozen=True)
class BlockModel:
    """Block-diagonal stand-in for the full correlation structure."""

    block_count: int
    block_sizes: tuple
    mu2: float

    def __post_init__(self):
        if self.block_count < 1 or len(self.block_sizes) != self.block_count:
            raise ValueError("block_sizes must list one size per block")
        if any(s < 1 for s in self.block_sizes):
            raise ValueError("every block size must be >= 1")
        if not (0.0 < self.mu2 < 1.0):
            raise ValueError("mu2 must lie strictly inside (0, 1)")

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


def eigen_factor(corr: ToeplitzCorrelation) -> EigenFactor:
    """Eigendecomposition with round-off eigenvalues clipped to zero.

    The sinc kernel is numerically rank deficient, so the bottom of the
    spectrum comes out as tiny values of either sign; everything below
    1e-12 of the largest eigenvalue is set to 0 so Lambda^(1/2) stays real.
    """
    vals, vecs = np.linalg.eigh(corr.matrix)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    floor = EIGENVALUE_CLIP * float(vals[0])
    if not (vals[0] > 0.0):
        raise NumericError("correlation matrix has no positive eigenvalue")
    vals[vals < floor] = 0.0
    return EigenFactor(eigenvectors=vecs, eigenvalues=vals)


def _identity_factor(ports: int) -> EigenFactor:
    return EigenFactor(eigenvectors=np.eye(ports), eigenvalues=np.ones(ports))


def _channel_blocks(rng: np.random.Generator, count: int, factor_t: np.ndarray,
                    sigma2: float):
    """Yield (start, block) over count channel draws, a few at a time.

    factor_t is the r x N transposed sampling matrix. Each draw takes 2r
    standard normals in turn, the real parts of its r mode weights and then
    the imaginary ones, so the stream does not depend on the block size.
    Both parts come from one real product of the stacked weights with the
    factor, never a complex one; a block is a (rows, 2, N) array of the real
    and imaginary parts of draws start, start + 1, ...
    """
    rank, ports = factor_t.shape
    scaled = np.ascontiguousarray(math.sqrt(0.5 * sigma2) * factor_t)
    step = max(1, _DRAW_ENTRIES // ports)
    for start in range(0, count, step):
        rows = min(step, count - start)
        z = rng.standard_normal((2 * rows, rank))
        yield start, (z @ scaled).reshape(rows, 2, ports)


def sample_channels(factor: EigenFactor, sigma2: float, count: int, seed: int,
                    workers=None) -> np.ndarray:
    """Draw correlated channel vectors g = Q_r Lambda_r^(1/2) g0.

    g0 holds r i.i.d. circular complex Gaussian mode weights of variance
    sigma2 (split evenly between real and imaginary parts), one per
    eigenvalue kept by the factor, so each port's |g_k|^2 is exponential
    with mean sigma2. Real and imaginary parts are real products with the
    N x r factor, so a draw costs O(rN), not O(N^2). This is the library's
    one sampling path: montecarlo's gain draws go through the same kernel.

    Returns a (count, N) complex array. Draws are organized in fixed-size
    chunks keyed by (seed, chunk index), so the output is bit-identical for
    any worker count.
    """
    if not (sigma2 > 0.0 and math.isfinite(sigma2)):
        raise ValueError("sigma2 must be positive and finite")
    if count < 1:
        raise ValueError("count must be >= 1")
    factor_t = factor.factor.T

    def task(index, size):
        out = np.empty((size, factor_t.shape[1]), dtype=complex)
        rng = parallel.chunk_rng(seed, index)
        for start, g in _channel_blocks(rng, size, factor_t, sigma2):
            rows = out[start:start + len(g)]
            rows.real, rows.imag = g[:, 0], g[:, 1]
        return out

    blocks = parallel.run_chunks(task, count, workers)
    return np.concatenate(blocks, axis=0)


def _leading_eigenvalues(row: np.ndarray) -> np.ndarray:
    """Leading eigenvalues, descending, of the symmetric Toeplitz matrix of row.

    The result holds every eigenvalue at or above max(BLOCK_SIGNIFICANCE *
    lambda_max, row[0]) and possibly some below; row[0] must be positive.
    Products with the matrix go through its circulant embedding of size 2N,
    whose spectrum is one real FFT of [row, 0, reversed row[1:]], so the
    search costs O(N p log N) per step for p columns and never forms the
    matrix. Block subspace iteration with Rayleigh-Ritz runs on p columns
    (p = 8 from a fixed seed, so the result is deterministic) and stops
    when every Ritz value theta_i >= thr / 2 has residual <= 1e-9 theta_1
    and ||T||_F^2 - sum theta_i^2 < thr^2: Ritz values never exceed the
    eigenvalues they interlace, so that bounds the sum of squares of
    lambda_(p+1), ..., lambda_N below thr^2 and no eigenvalue beyond the p
    found reaches thr. ||T||_F^2 = N r_0^2 + 2 sum_k (N - k) r_k^2 is exact
    in O(N). Otherwise p doubles: the next block is the current Ritz vectors
    times the matrix (one subspace-iteration step) plus p fresh random
    columns. The dense eigenvalues are returned instead once 2p >= N (tiny
    N), or once N / 8 Ritz values reach thr: as many eigenvalues do, so
    certifying needs blocks of N / 4 columns or more, and one step on those
    costs about half the dense eigvalsh already (N = 1000 to 3000, one
    thread). That cuts short spectra without a plunge (W near (N - 1) / 2,
    near-identity rows).
    """
    n = row.size
    r0 = float(row[0])
    spectrum = np.fft.rfft(np.concatenate([row, [0.0], row[:0:-1]])).real[:, None]
    frobenius2 = n * r0 * r0 + 2.0 * float(np.dot(np.arange(n - 1, 0, -1), row[1:] ** 2))

    def apply(x):
        return np.fft.irfft(np.fft.rfft(x, 2 * n, axis=0) * spectrum, 2 * n, axis=0)[:n]

    rng = np.random.default_rng(0)
    p = _START_COLUMNS
    x = rng.standard_normal((n, p))
    while 2 * p < n:
        q, _ = np.linalg.qr(x)
        tq = apply(q)
        h = q.T @ tq
        theta, s = np.linalg.eigh(0.5 * (h + h.T))
        theta, s = theta[::-1], s[:, ::-1]
        tv = tq @ s
        residual = np.linalg.norm(tv - (q @ s) * theta, axis=0)
        threshold = max(BLOCK_SIGNIFICANCE * float(theta[0]), r0)
        converged = np.all(residual[theta >= 0.5 * threshold] <= _RITZ_RESIDUAL * theta[0])
        certified = frobenius2 - float(np.dot(theta, theta)) < threshold * threshold
        if converged and certified:
            return theta
        significant = np.count_nonzero(theta >= threshold * (1.0 - 1e-9))
        if _DENSE_SHARE * significant >= n:
            break
        x = np.hstack([tv, rng.standard_normal((n, p))])
        p *= 2
    return np.linalg.eigvalsh(toeplitz(row))[::-1]


def fit_block_model(corr: ToeplitzCorrelation, mu2: float) -> BlockModel:
    """Condense a correlation matrix into a block model.

    The number of blocks B is the count of significant eigenvalues: those
    reaching both 1e-2 of the largest eigenvalue and the spectral average
    trace/N (the first row's lag-0 entry). For the sinc kernel this
    recovers the familiar 2W+1 dominant mode count (and B = N for an
    identity correlation). Only that leading part of the spectrum is
    computed, matrix-free from the first row (_leading_eigenvalues). Sizes
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
    vals = _leading_eigenvalues(corr.first_row) if mean > 0.0 else None
    if vals is None or not (vals[0] > 0.0):
        warnings.warn("degenerate correlation spectrum; falling back to one block")
        return BlockModel(block_count=1, block_sizes=(n,), mu2=float(mu2))

    threshold = max(BLOCK_SIGNIFICANCE * float(vals[0]), mean)
    # the relative slack keeps eigenvalues that sit on the threshold up to
    # round-off (an identity-like spectrum has all of them at the mean)
    b = int(np.sum(vals >= threshold * (1.0 - 1e-9)))
    if b < 1:  # pragma: no cover - max >= mean makes this unreachable
        warnings.warn("degenerate correlation spectrum; falling back to one block")
        return BlockModel(block_count=1, block_sizes=(n,), mu2=float(mu2))
    sizes = (n - b + 1,) + (1,) * (b - 1)
    return BlockModel(block_count=int(b), block_sizes=sizes, mu2=float(mu2))


# ============================================================================
# Plain-text serialization
# ============================================================================

# Layout: `key=value` lines. A correlation is stored as its size and first
# row, which define the whole Toeplitz matrix. Floats are written with
# repr(), which round-trips binary doubles exactly.


def save_correlation(corr: ToeplitzCorrelation, path) -> None:
    lines = [f"size={corr.size}",
             "first_row=" + ",".join(repr(float(v)) for v in corr.first_row)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_correlation(path) -> ToeplitzCorrelation:
    """Read a saved correlation.

    Files written before the matrix was dropped from the layout end with a
    `matrix:` marker and one CSV row per matrix row; such a block is
    accepted only if it is the Toeplitz matrix of the stored first row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = {}
    rows = None
    for ln in lines:
        if rows is not None:
            rows.append([float(v) for v in ln.split(",")])
        elif ln.strip() == "matrix:":
            rows = []
        else:
            key, _, val = ln.partition("=")
            header[key.strip()] = val
    first_row = np.array([float(v) for v in header["first_row"].split(",")])
    corr = ToeplitzCorrelation(size=int(header["size"]), first_row=first_row)
    if rows is not None and not (
            all(len(r) == corr.size for r in rows)
            and np.array_equal(np.array(rows), corr.matrix)):
        raise ValueError("correlation file's matrix is not the Toeplitz matrix of its first row")
    return corr


def save_block_model(model: BlockModel, path) -> None:
    lines = [f"block_count={model.block_count}",
             "block_sizes=" + ",".join(str(s) for s in model.block_sizes),
             f"mu2={model.mu2!r}"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_block_model(path) -> BlockModel:
    header = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln in fh:
            if ln.strip():
                key, _, val = ln.partition("=")
                header[key.strip()] = val.strip()
    return BlockModel(
        block_count=int(header["block_count"]),
        block_sizes=tuple(int(s) for s in header["block_sizes"].split(",")),
        mu2=float(header["mu2"]),
    )
