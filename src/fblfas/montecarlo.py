"""Empirical estimates from the exact Toeplitz-correlated channel.

Everything here simulates the full correlation structure, not the block
approximation, so gaps between these estimates and the analytic values
include the block-model error on purpose. Draws follow the channel
module's determinism contract: fixed-size chunks keyed by (seed, chunk
index), order-independent reductions, identical output for any worker
count. A sweep's configs may span several channels (ports, antenna_length,
channel_variance); each chunk draws its normal stream once, and every
channel reads it from the start (_SharedNormals), a rank-r channel the
first 2r values per draw, so each channel's draws, and every estimate, are
those of a sweep over that channel alone. Every config of a channel is
evaluated on the same draws; the per-config estimates are one-config
sweeps. Gain CDFs and outages form only the draws whose mean port gain, a
lower bound on the selected-port gain, lies at or below their largest
threshold, with the same counts as forming every draw; the error-bound
overlay forms all.
"""

from __future__ import annotations

import functools
import math
import types
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
# gain sends its chunk's channel back to be counted unscreened.
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


class _SharedNormals:
    """One chunk's stream of standard normals, read by several channels.

    reader(k) gives channel k an object whose standard_normal(shape) returns
    the next prod(shape) values of the stream from k's own cursor, so each
    reader gets exactly what a fresh generator of its own would give, in the
    same request sizes and shapes. Values are generated once, when the
    reader furthest ahead first asks for them, and dropped once every open
    reader has passed them: with the reader furthest behind always served
    first (_max_gains), the buffer stays within about one request (a screen
    batch, 512 KiB).
    """

    def __init__(self, rng, readers):
        self._rng = rng
        self._buf = np.empty(0)
        self._base = 0  # stream index of _buf[0]
        self.cursors = [0] * readers  # None once a reader is closed

    def reader(self, k):
        return types.SimpleNamespace(standard_normal=functools.partial(self._take, k))

    def close(self, k):
        self.cursors[k] = None

    def _take(self, k, shape):
        start = self.cursors[k]
        end = start + math.prod(shape)
        have = self._base + self._buf.size
        if end > have:
            # keep what an open reader has still to read, then draw the rest
            low = min(c for c in self.cursors if c is not None)
            buf = np.empty(end - low)
            buf[:have - low] = self._buf[low - self._base:]
            self._buf, self._base = buf, low
            self._rng.standard_normal(out=buf[have - low:])
        self.cursors[k] = end
        out = self._buf[start - self._base:end - self._base].reshape(shape)
        if min(c for c in self.cursors if c is not None) == self._base + self._buf.size:
            # every open reader has all of it: the views handed out hold it
            self._base, self._buf = self._base + self._buf.size, np.empty(0)
        return out


def _max_gains(index, size, channels, seed) -> list:
    """max_k |g_k|^2 of each draw of chunk `index`, one array per channel.

    channels lists (factor_t, sigma2, cap) triples. Every channel's
    _channel_blocks reads the chunk's one normal stream (_SharedNormals);
    the channel whose cursor lies furthest behind is advanced first. With a
    cap, a draw whose mean port gain clears it (_channel_blocks' screen) is
    left unformed and gets that mean, a lower bound above the cap, instead;
    the formed gains can differ from unscreened ones by an ulp.
    """
    stream = _SharedNormals(parallel.chunk_rng(seed, index), len(channels))
    gains = [np.empty(size) for _ in channels]
    blocks = {k: _channel_blocks(stream.reader(k), size, factor_t, sigma2, cap, gains[k])
              for k, (factor_t, sigma2, cap) in enumerate(channels)}
    while blocks:
        k = min(blocks, key=stream.cursors.__getitem__)
        block = next(blocks[k], None)
        if block is None:
            del blocks[k]
            stream.close(k)
            continue
        rows, g = block
        np.square(g, out=g)
        gains[k][rows] = np.max(g[:, 0] + g[:, 1], axis=1)
        del block, g  # not held while the next block is formed
    return gains


def _gain_cdfs(channels, grids, samples, seed, workers) -> list:
    """Empirical gain CDF on each grid, per channel (ports, width, sigma2).

    Only draws whose mean port gain lies at or below the channel's top grid
    point are formed (the cap of _max_gains): the others lie above every
    grid point either way. A channel whose formed gain in a chunk lies
    within _TIE_SLACK of a grid point, where an ulp could move a count, is
    drawn again on that chunk alone and counted unscreened, so each count
    is that of the unscreened draws. Returns one list of McEstimate per
    channel, one per grid point, with binomial standard errors.
    """
    factors = [(_factor_transpose(ports, width), sigma2) for ports, width, sigma2 in channels]
    screened = [(f, sigma2, grid[-1]) for (f, sigma2), grid in zip(factors, grids)]
    slacks = [_TIE_SLACK * np.abs(grid) for grid in grids]

    def task(index, size):
        counts = []
        drawn = _max_gains(index, size, screened, seed)
        for gains, (f, sigma2), grid, slack in zip(drawn, factors, grids, slacks):
            low = np.sort(gains[gains <= grid[-1]])
            if np.any(np.searchsorted(low, grid - slack)
                      != np.searchsorted(low, grid + slack, side="right")):
                low = np.sort(_max_gains(index, size, [(f, sigma2, None)], seed)[0])
            counts.append(np.searchsorted(low, grid, side="right"))
        return counts

    parts = parallel.run_chunks(task, samples, workers)
    cdfs = []
    for k in range(len(channels)):
        counts = np.sum([part[k] for part in parts], axis=0)
        p = counts / samples
        se = np.sqrt(p * (1.0 - p) / samples)
        cdfs.append([McEstimate(value=float(p[j]), standard_error=float(se[j]),
                                samples=samples, seed=int(seed),
                                low_hits=int(counts[j]) < _RELIABLE_HITS)
                     for j in range(len(counts))])
    return cdfs


def empirical_gain_cdf(ports, width, sigma2, t_grid, samples, seed, workers=None):
    """Empirical CDF of the selected-port gain at each grid threshold.

    Per draw the gain is max_k |g_k|^2 over the N correlated ports, counted
    as _gain_cdfs does for a sweep's outages. Returns a list of McEstimate,
    one per grid point, with binomial standard errors.
    """
    samples = _checked_samples(samples)
    if not (sigma2 > 0.0 and math.isfinite(sigma2)):
        raise ValueError("sigma2 must be positive and finite")
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("t_grid must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(grid)) or np.any(np.diff(grid) < 0.0):
        raise ValueError("t_grid must be finite and non-decreasing")
    return _gain_cdfs([(ports, width, sigma2)], [grid], samples, seed, workers)[0]


def _channel(config: SystemConfig) -> tuple:
    return config.ports, config.antenna_length, config.channel_variance


def _checked_configs(configs) -> list:
    configs = list(configs)
    if not configs:
        raise ValueError("configs must be non-empty")
    return configs


def empirical_statistical_bler(config: SystemConfig, samples, seed, workers=None) -> McEstimate:
    """Mean clamped error bound at the simulated selected-port gain."""
    return empirical_statistical_bler_sweep([config], samples, seed, workers)[0]


def empirical_outage(config: SystemConfig, samples, seed, workers=None) -> McEstimate:
    """Fraction of simulated draws whose selected-port gain misses t_th."""
    return empirical_outage_sweep([config], samples, seed, workers)[0]


def empirical_statistical_bler_sweep(configs, samples, seed, workers=None) -> list:
    """empirical_statistical_bler at every config, on any mix of channels.

    Each chunk is drawn once for every channel, and each distinct bound of a
    channel (users, blocklength and the two variances) sums its clamped
    values and their squares over the whole chunk, the batch a call with one
    config uses, so every estimate equals such a call bit for bit.
    """
    samples = _checked_samples(samples)
    configs = _checked_configs(configs)

    def bound(c):
        return c.users, c.blocklength, c.codeword_variance, c.noise_variance

    # each channel's distinct bounds, in order: the draws depend only on the
    # channel and the seed
    channels = {}
    for c in configs:
        channels.setdefault(_channel(c), {})[bound(c)] = None
    distinct = [list(bounds) for bounds in channels.values()]
    drawn = [(_factor_transpose(ports, width), sigma2, None)
             for ports, width, sigma2 in channels]

    def task(index, size):
        sums = []
        for gains, bounds in zip(_max_gains(index, size, drawn, seed), distinct):
            vals = (conditional_bler(u, m, gains, cv, nv) for u, m, cv, nv in bounds)
            sums.append([(float(np.sum(v)), float(np.sum(v * v))) for v in vals])
        return sums

    parts = parallel.run_chunks(task, samples, workers)
    estimates = {}
    for k, (channel, bounds) in enumerate(zip(channels, distinct)):
        for j, key in enumerate(bounds):
            mean = math.fsum(p[k][j][0] for p in parts) / samples
            total_sq = math.fsum(p[k][j][1] for p in parts)
            var = max((total_sq - samples * mean * mean) / (samples - 1), 0.0)
            estimates[channel, key] = McEstimate(
                value=mean, standard_error=math.sqrt(var / samples),
                samples=samples, seed=int(seed))
    return [estimates[_channel(c), bound(c)] for c in configs]


def empirical_outage_sweep(configs, samples, seed, workers=None) -> list:
    """empirical_outage at every config, on any mix of channels.

    A sweep over users, SNR or gamma_th changes only the threshold t_th, so
    each point's outage is its channel's empirical gain CDF at its t_th,
    read from one _gain_cdfs pass over every channel's distinct
    unsaturated thresholds; saturated points are certain, and a channel
    with no other point draws nothing.
    """
    samples = _checked_samples(samples)
    configs = _checked_configs(configs)
    thresholds = [outage_threshold(c) for c in configs]
    grids = {}
    for c, t in zip(configs, thresholds):
        if not math.isinf(t):
            grids.setdefault(_channel(c), set()).add(t)
    grids = {channel: sorted(grid) for channel, grid in grids.items()}
    at = {}
    if grids:
        cdfs = _gain_cdfs(list(grids), [np.array(g) for g in grids.values()],
                          samples, seed, workers)
        for (channel, grid), cdf in zip(grids.items(), cdfs):
            at.update(zip(((channel, t) for t in grid), cdf))
    certain = McEstimate(value=1.0, standard_error=0.0, samples=samples, seed=int(seed))
    return [certain if math.isinf(t) else at[_channel(c), t]
            for c, t in zip(configs, thresholds)]
