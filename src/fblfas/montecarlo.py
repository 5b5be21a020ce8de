"""Empirical estimates from the exact Toeplitz-correlated channel.

Everything here simulates the full correlation structure, not the block
approximation, so gaps between these estimates and the analytic values
include the block-model error on purpose. Draws follow the channel
module's determinism contract: fixed-size chunks keyed by (seed, chunk
index), order-independent reductions, identical output for any worker
count. Each sweep draws its channel once and evaluates every config on
those draws; the per-config estimates are one-config sweeps. Gain CDFs and
outages form only the draws whose mean port gain, a lower bound on the
selected-port gain, lies at or below their largest threshold, with the
same counts as forming every draw; the error-bound overlay forms all.
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

# Gains formed after the outage screen may round an ulp away from the
# unscreened ones; a grid point within this relative distance of a formed
# gain sends its chunk back to be counted unscreened.
_TIE_SLACK = 1e-12

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


def _max_gains(index, size, factor_t, sigma2, seed, cap=None) -> np.ndarray:
    """max_k |g_k|^2 of each draw of chunk `index`, formed block by block.

    With a cap, a draw whose mean port gain clears it (_channel_blocks'
    screen) is left unformed and gets that mean, a lower bound above the
    cap, instead; the formed gains can differ from unscreened ones by an ulp.
    """
    gains = np.empty(size)
    rng = parallel.chunk_rng(seed, index)
    for rows, g in _channel_blocks(rng, size, factor_t, sigma2, cap, gains):
        np.square(g, out=g)
        gains[rows] = np.max(g[:, 0] + g[:, 1], axis=1)
    return gains


def empirical_gain_cdf(ports, width, sigma2, t_grid, samples, seed, workers=None):
    """Empirical CDF of the selected-port gain at each grid threshold.

    Per draw the gain is max_k |g_k|^2 over the N correlated ports. Only
    draws whose mean port gain lies at or below the top grid point are
    formed (the cap of _max_gains): the others lie above every grid point
    either way. A chunk in which a formed gain lies within _TIE_SLACK of a
    grid point, where an ulp could move a count, is counted again on every
    draw, so each count is that of the unscreened draws.
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
    slack = _TIE_SLACK * np.abs(grid)

    def task(index, size):
        gains = _max_gains(index, size, factor_t, sigma2, seed, grid[-1])
        low = np.sort(gains[gains <= grid[-1]])
        if np.any(np.searchsorted(low, grid - slack)
                  != np.searchsorted(low, grid + slack, side="right")):
            low = np.sort(_max_gains(index, size, factor_t, sigma2, seed))
        return np.searchsorted(low, grid, side="right")

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
