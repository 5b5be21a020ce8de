"""Empirical estimates from the exact Toeplitz-correlated channel.

Everything here simulates the full correlation structure, not the block
approximation, so gaps between these estimates and the analytic values
include the block-model error on purpose. Draws follow the channel
module's determinism contract: fixed-size chunks keyed by (seed, chunk
index), order-independent reductions, identical output for any worker
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import parallel
from .channel import (
    SystemConfig,
    _channel_blocks,
    _identity_factor,
    build_correlation,
    eigen_factor,
)
from .metrics import conditional_bler, outage_threshold

# Below this many favorable events a probability estimate's relative error
# is anyone's guess; the estimate carries a flag instead of pretending.
_RELIABLE_HITS = 10


@dataclass(frozen=True)
class McEstimate:
    """One seeded estimate with its standard error.

    standard_error is binomial for probability-type estimates and sample
    standard deviation over sqrt(samples) for mean-type ones. low_hits
    marks probability estimates backed by fewer than ten events.
    """

    value: float
    standard_error: float
    samples: int
    seed: int
    low_hits: bool = False


def _checked_samples(samples) -> int:
    if not isinstance(samples, (int, np.integer)) or samples < 1000:
        raise ValueError("samples must be an integer >= 1000")
    return int(samples)


@lru_cache(maxsize=4)
def _factor_transpose(ports, width) -> np.ndarray:
    """Transposed r x N sampling matrix; a single port skips the spacing rule.

    Memoised per (ports, width), since every point of a sweep over users or
    SNR draws through the same factor; the array is read-only because every
    caller shares it.
    """
    if not isinstance(ports, (int, np.integer)) or ports < 1:
        raise ValueError("ports must be a positive integer")
    if ports == 1:
        factor = _identity_factor(1).factor
    else:
        factor = eigen_factor(build_correlation(int(ports), width)).factor
    factor_t = factor.T
    factor_t.flags.writeable = False
    return factor_t


def _max_gains(index, size, factor_t, sigma2, seed) -> np.ndarray:
    """max_k |g_k|^2 of each draw of chunk `index`, formed block by block."""
    gains = np.empty(size)
    rng = parallel.chunk_rng(seed, index)
    for start, g in _channel_blocks(rng, size, factor_t, sigma2):
        np.square(g, out=g)
        gains[start:start + len(g)] = np.max(g[:, 0] + g[:, 1], axis=1)
    return gains


def empirical_gain_cdf(ports, width, sigma2, t_grid, samples, seed, workers=None):
    """Empirical CDF of the selected-port gain at each grid threshold.

    Per draw the gain is max_k |g_k|^2 over the N correlated ports.
    Returns a list of McEstimate, one per grid point, with binomial
    standard errors.
    """
    samples = _checked_samples(samples)
    if not (sigma2 > 0.0 and math.isfinite(sigma2)):
        raise ValueError("sigma2 must be positive and finite")
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("t_grid must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(grid)) or np.any(np.diff(grid) < 0.0):
        raise ValueError("t_grid must be finite and non-decreasing")
    factor_t = _factor_transpose(ports, width)

    def task(index, size):
        gains = np.sort(_max_gains(index, size, factor_t, sigma2, seed))
        return np.searchsorted(gains, grid, side="right")

    counts = np.sum(parallel.run_chunks(task, samples, workers), axis=0)
    p = counts / samples
    se = np.sqrt(p * (1.0 - p) / samples)
    return [
        McEstimate(
            value=float(p[j]),
            standard_error=float(se[j]),
            samples=samples,
            seed=int(seed),
            low_hits=int(counts[j]) < _RELIABLE_HITS,
        )
        for j in range(grid.size)
    ]


def empirical_statistical_bler(config: SystemConfig, samples, seed, workers=None) -> McEstimate:
    """Mean clamped error bound at the simulated selected-port gain."""
    samples = _checked_samples(samples)
    factor_t = _factor_transpose(config.ports, config.antenna_length)

    def task(index, size):
        gains = _max_gains(index, size, factor_t, config.channel_variance, seed)
        vals = conditional_bler(
            config.users, config.blocklength, gains,
            config.codeword_variance, config.noise_variance,
        )
        return float(np.sum(vals)), float(np.sum(vals * vals))

    parts = parallel.run_chunks(task, samples, workers)
    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    mean = total / samples
    var = max((total_sq - samples * mean * mean) / (samples - 1), 0.0)
    return McEstimate(
        value=mean,
        standard_error=math.sqrt(var / samples),
        samples=samples,
        seed=int(seed),
    )


def empirical_outage(config: SystemConfig, samples, seed, workers=None) -> McEstimate:
    """Fraction of simulated draws whose selected-port gain misses t_th."""
    samples = _checked_samples(samples)
    spec = outage_threshold(config)
    if spec.saturated:
        return McEstimate(value=1.0, standard_error=0.0, samples=samples, seed=int(seed))
    factor_t = _factor_transpose(config.ports, config.antenna_length)

    def task(index, size):
        gains = _max_gains(index, size, factor_t, config.channel_variance, seed)
        return int(np.count_nonzero(gains <= spec.t_th))

    hits = sum(parallel.run_chunks(task, samples, workers))
    p = hits / samples
    return McEstimate(
        value=p,
        standard_error=math.sqrt(p * (1.0 - p) / samples),
        samples=samples,
        seed=int(seed),
        low_hits=hits < _RELIABLE_HITS,
    )


def empirical_outage_sweep(configs, samples, seed, workers=None) -> list:
    """empirical_outage at every config, from one set of draws.

    The configs must share the port count, the aperture and the channel
    variance: the selected-port gain depends only on those and the seed, so
    a sweep over users, SNR or gamma_th changes only the threshold t_th.
    Each point's outage is then the empirical gain CDF at its t_th, read
    from one empirical_gain_cdf pass over the distinct unsaturated
    thresholds; saturated points are certain, as in empirical_outage. The
    estimates equal per-point empirical_outage calls bit for bit.
    """
    samples = _checked_samples(samples)
    configs = list(configs)
    if not configs:
        raise ValueError("configs must not be empty")
    first = configs[0]
    channel = (first.ports, first.antenna_length, first.channel_variance)
    if any((c.ports, c.antenna_length, c.channel_variance) != channel for c in configs):
        raise ValueError("configs must share ports, antenna_length and channel_variance")
    specs = [outage_threshold(c) for c in configs]
    grid = sorted({s.t_th for s in specs if not s.saturated})
    at = {}
    if grid:
        ests = empirical_gain_cdf(first.ports, first.antenna_length, first.channel_variance,
                                  grid, samples, seed, workers)
        at = dict(zip(grid, ests))
    certain = McEstimate(value=1.0, standard_error=0.0, samples=samples, seed=int(seed))
    return [certain if s.saturated else at[s.t_th] for s in specs]
