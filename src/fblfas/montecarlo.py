"""Empirical estimates from the exact Toeplitz-correlated channel.

Everything here simulates the full correlation structure, not the block
approximation, so gaps between these estimates and the analytic values
include the block-model error on purpose. Draws follow the channel
module's determinism contract: fixed-size chunks keyed by (seed, chunk
index), order-independent reductions, identical output for any worker
count. Each sweep draws its channel once and evaluates every config on
those draws; the per-config estimates are one-config sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .channel import (
    SystemConfig,
    _channel_blocks,
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


def _factor_transpose(ports, width) -> np.ndarray:
    """Transposed r x N sampling matrix; a single port skips the spacing rule."""
    if not isinstance(ports, (int, np.integer)) or ports < 1:
        raise ValueError("ports must be a positive integer")
    if ports == 1:
        return np.ones((1, 1))
    return eigen_factor(build_correlation(int(ports), width)).T


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


def _shared_channel(configs) -> tuple:
    """The configs as a list, and the channel they must share.

    The selected-port gain depends only on (ports, antenna_length,
    channel_variance) and the seed, so the configs share one set of draws.
    """
    configs = list(configs)
    channels = {(c.ports, c.antenna_length, c.channel_variance) for c in configs}
    if len(channels) != 1:
        raise ValueError("configs must be non-empty and share ports, antenna_length "
                         "and channel_variance")
    return configs, channels.pop()


def empirical_statistical_bler(config: SystemConfig, samples, seed, workers=None) -> McEstimate:
    """Mean clamped error bound at the simulated selected-port gain."""
    return empirical_statistical_bler_sweep([config], samples, seed, workers)[0]


def empirical_outage(config: SystemConfig, samples, seed, workers=None) -> McEstimate:
    """Fraction of simulated draws whose selected-port gain misses t_th."""
    return empirical_outage_sweep([config], samples, seed, workers)[0]


def empirical_statistical_bler_sweep(configs, samples, seed, workers=None) -> list:
    """empirical_statistical_bler at every config of one channel.

    Each chunk is drawn once, and each distinct bound (users, blocklength
    and the two variances) sums its clamped values and their squares over
    the whole chunk, the batch a call with one config uses, so every
    estimate equals such a call bit for bit.
    """
    samples = _checked_samples(samples)
    configs, (ports, width, sigma2) = _shared_channel(configs)
    bounds = [(c.users, c.blocklength, c.codeword_variance, c.noise_variance)
              for c in configs]
    distinct = list(dict.fromkeys(bounds))
    factor_t = _factor_transpose(ports, width)

    def task(index, size):
        gains = _max_gains(index, size, factor_t, sigma2, seed)
        vals = (conditional_bler(u, m, gains, cv, nv) for u, m, cv, nv in distinct)
        return [(float(np.sum(v)), float(np.sum(v * v))) for v in vals]

    parts = parallel.run_chunks(task, samples, workers)
    estimates = {}
    for j, key in enumerate(distinct):
        mean = math.fsum(p[j][0] for p in parts) / samples
        total_sq = math.fsum(p[j][1] for p in parts)
        var = max((total_sq - samples * mean * mean) / (samples - 1), 0.0)
        estimates[key] = McEstimate(value=mean, standard_error=math.sqrt(var / samples),
                                    samples=samples, seed=int(seed))
    return [estimates[key] for key in bounds]


def empirical_outage_sweep(configs, samples, seed, workers=None) -> list:
    """empirical_outage at every config of one channel.

    A sweep over users, SNR or gamma_th changes only the threshold t_th, so
    each point's outage is the empirical gain CDF at its t_th, read from one
    empirical_gain_cdf pass over the distinct unsaturated thresholds;
    saturated points are certain and draw nothing.
    """
    samples = _checked_samples(samples)
    configs, channel = _shared_channel(configs)
    thresholds = [outage_threshold(c) for c in configs]
    grid = sorted({t for t in thresholds if not math.isinf(t)})
    at = {}
    if grid:
        at = dict(zip(grid, empirical_gain_cdf(*channel, grid, samples, seed, workers)))
    certain = McEstimate(value=1.0, standard_error=0.0, samples=samples, seed=int(seed))
    return [certain if math.isinf(t) else at[t] for t in thresholds]
