"""Simulation estimates: closed-form marginals, determinism, error bars.

A single port draws an Exp(sigma2) gain, which gives exact targets for
every estimator here. The multi-port checks lean on the determinism
contract (bit-identical output for any worker count) and on agreement
with the analytic chain within a few standard errors plus the known
block-approximation slack.
"""
import math
import operator
import tracemalloc

import numpy as np
import pytest

from fblfas import montecarlo, parallel
from fblfas.channel import (
    SystemConfig,
    _channel_blocks,
    build_correlation,
    eigen_factor,
    fit_block_model,
)
from fblfas.fas_stats import GainDistribution, cdf_gfas
from fblfas.metrics import conditional_bler, outage_threshold
from fblfas.montecarlo import (
    McEstimate,
    _factor_transpose,
    _max_gains,
    empirical_gain_cdf,
    empirical_outage,
    empirical_outage_sweep,
    empirical_statistical_bler,
    empirical_statistical_bler_sweep,
)
from fblfas.quadrature import gauss_laguerre
from reference import sample_channels

SINGLE_PORT_BLER = 0.523720870407838778  # same quad oracle as test_metrics


class TestEmpiricalGainCdf:
    def test_zero_threshold(self):
        (est,) = empirical_gain_cdf(1, 0.5, 2.0, [0.0], samples=5000, seed=3)
        assert est.value == 0.0
        assert est.low_hits

    def test_single_port_exponential(self):
        grid = [0.5, 2.0, 5.0]
        estimates = empirical_gain_cdf(1, 0.5, 2.0, grid, samples=50_000, seed=11)
        for t, est in zip(grid, estimates):
            want = 1.0 - math.exp(-t / 2.0)
            assert abs(est.value - want) < 3.0 * est.standard_error + 1e-12

    def test_values_non_decreasing(self):
        grid = np.linspace(0.1, 20.0, 25)
        estimates = empirical_gain_cdf(10, 0.5, 2.0, grid, samples=20_000, seed=4)
        values = [e.value for e in estimates]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_error_bars_sane(self):
        (est,) = empirical_gain_cdf(5, 1.0, 2.0, [4.0], samples=10_000, seed=9)
        assert 0.0 < est.standard_error <= 0.5 / math.sqrt(10_000)
        assert est.samples == 10_000
        assert est.seed == 9

    def test_deterministic_across_workers(self):
        grid = [1.0, 5.0, 12.0]
        a = empirical_gain_cdf(10, 0.5, 2.0, grid, samples=30_000, seed=7, workers=1)
        b = empirical_gain_cdf(10, 0.5, 2.0, grid, samples=30_000, seed=7, workers=8)
        assert a == b

    def test_ragged_chunk_tail_deterministic(self):
        # 70000 draws split into one full 65536 chunk plus a short tail
        grid = [2.0]
        a = empirical_gain_cdf(4, 0.5, 2.0, grid, samples=70_000, seed=5, workers=1)
        b = empirical_gain_cdf(4, 0.5, 2.0, grid, samples=70_000, seed=5, workers=8)
        assert a == b

    def test_seed_changes_output(self):
        a = empirical_gain_cdf(3, 0.5, 2.0, [3.0], samples=5000, seed=1)
        b = empirical_gain_cdf(3, 0.5, 2.0, [3.0], samples=5000, seed=2)
        assert a[0].value != b[0].value

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_gain_cdf(3, 0.5, 2.0, [1.0], samples=999, seed=0)
        with pytest.raises(ValueError):
            empirical_gain_cdf(3, 0.5, -1.0, [1.0], samples=5000, seed=0)
        with pytest.raises(ValueError):
            empirical_gain_cdf(3, 0.5, 2.0, [2.0, 1.0], samples=5000, seed=0)
        with pytest.raises(ValueError):
            empirical_gain_cdf(3, 0.5, 2.0, [], samples=5000, seed=0)
        with pytest.raises(ValueError):
            empirical_gain_cdf(0, 0.5, 2.0, [1.0], samples=5000, seed=0)


class TestEmpiricalStatisticalBler:
    def test_single_port_matches_quad_oracle(self):
        cfg = SystemConfig(ports=1, antenna_length=0.5, users=1, blocklength=5,
                           channel_variance=2.0, noise_variance=1.0)
        est = empirical_statistical_bler(cfg, samples=100_000, seed=21)
        assert abs(est.value - SINGLE_PORT_BLER) < 3.0 * est.standard_error
        assert est.standard_error < 5e-3

    def test_bounded(self):
        cfg = SystemConfig(ports=5, antenna_length=1.0, users=10, blocklength=5,
                           channel_variance=2.0, noise_variance=100.0)
        est = empirical_statistical_bler(cfg, samples=5000, seed=1)
        assert 0.0 <= est.value <= 1.0

    def test_error_shrinks_with_samples(self):
        cfg = SystemConfig(ports=1, antenna_length=0.5, users=1, blocklength=5,
                           channel_variance=2.0, noise_variance=1.0)
        small = empirical_statistical_bler(cfg, samples=25_000, seed=8)
        large = empirical_statistical_bler(cfg, samples=100_000, seed=8)
        assert large.standard_error == pytest.approx(
            small.standard_error / 2.0, rel=0.2)

    def test_deterministic_across_workers(self):
        cfg = SystemConfig(ports=8, antenna_length=0.5, users=4, blocklength=5,
                           channel_variance=2.0, noise_variance=0.5)
        a = empirical_statistical_bler(cfg, samples=40_000, seed=6, workers=1)
        b = empirical_statistical_bler(cfg, samples=40_000, seed=6, workers=8)
        assert a == b


class TestEmpiricalOutage:
    def test_single_port_exponential(self):
        # t_th = noise * gamma / 1 = 1.0, so the target is 1 - exp(-1/2)
        cfg = SystemConfig(ports=1, antenna_length=0.5, users=1, blocklength=5,
                           channel_variance=2.0, noise_variance=2.0,
                           outage_threshold=0.5)
        assert outage_threshold(cfg) == pytest.approx(1.0)
        est = empirical_outage(cfg, samples=50_000, seed=31)
        want = 1.0 - math.exp(-0.5)
        assert abs(est.value - want) < 3.0 * est.standard_error

    def test_saturated_is_certain(self):
        cfg = SystemConfig(ports=1, antenna_length=0.5, users=20, blocklength=5,
                           channel_variance=2.0, noise_variance=1.0,
                           outage_threshold=0.1)
        est = empirical_outage(cfg, samples=5000, seed=2)
        assert est == McEstimate(value=1.0, standard_error=0.0,
                                 samples=5000, seed=2)

    def test_low_hits_flag(self):
        # expected hit count ~1 out of 10000: the estimate must flag itself
        cfg = SystemConfig(ports=1, antenna_length=0.5, users=1, blocklength=5,
                           channel_variance=2.0, noise_variance=2.0,
                           outage_threshold=1e-4)
        est = empirical_outage(cfg, samples=10_000, seed=12)
        assert est.low_hits

    def test_matches_analytic_within_block_error(self):
        cfg = SystemConfig(ports=10, antenna_length=0.5, users=1, blocklength=5,
                           channel_variance=2.0, noise_variance=6.0,
                           outage_threshold=0.5)
        model = fit_block_model(build_correlation(10, 0.5), 0.97)
        dist = GainDistribution(model=model, channel_variance=2.0,
                                rule=gauss_laguerre(32))
        analytic = cdf_gfas(dist, outage_threshold(cfg))
        est = empirical_outage(cfg, samples=100_000, seed=17)
        assert abs(est.value - analytic) < 3.0 * est.standard_error + 0.03

    def test_deterministic_across_workers(self):
        cfg = SystemConfig(ports=6, antenna_length=1.0, users=2, blocklength=5,
                           channel_variance=2.0, noise_variance=1.0,
                           outage_threshold=0.01)
        a = empirical_outage(cfg, samples=30_000, seed=19, workers=1)
        b = empirical_outage(cfg, samples=30_000, seed=19, workers=8)
        assert a == b


class TestSamplingPath:
    def test_max_gains_follow_sample_channels(self):
        # one sampling path: the gains montecarlo reduces are those of the
        # channels sample_channels returns for the same seed (two chunks,
        # many draw blocks each)
        g = sample_channels(eigen_factor(build_correlation(50, 1.0)), 2.0, 70_000, seed=13)
        want = np.max(g.real ** 2 + g.imag ** 2, axis=1)
        factor_t = _factor_transpose(50, 1.0)
        got = np.concatenate(parallel.run_chunks(
            lambda index, size: _max_gains(index, size, [(factor_t, 2.0, None)], 13)[0], 70_000))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_factor_transpose_is_the_eigen_factor(self):
        np.testing.assert_array_equal(_factor_transpose(30, 0.7),
                                      eigen_factor(build_correlation(30, 0.7)).T)
        # a single port is its own unit-variance mode
        np.testing.assert_array_equal(_factor_transpose(1, 0.7), np.ones((1, 1)))

    def test_outage_memory_stays_bounded(self):
        # 65,536 draws at N = 1000 are 1 GiB as one complex channel array;
        # the draws are reduced block by block instead
        cfg = SystemConfig(ports=1000, antenna_length=0.5, users=2, blocklength=5,
                           channel_variance=2.0, noise_variance=50.0,
                           outage_threshold=0.01)
        tracemalloc.start()
        try:
            empirical_outage(cfg, samples=65_536, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def _formed_draws(monkeypatch) -> list:
    """Spy on the sampling kernel: the row count of every block it yields."""
    formed, blocks = [], montecarlo._channel_blocks

    def counted(*args):
        for rows, g in blocks(*args):
            formed.append(len(g))
            yield rows, g

    monkeypatch.setattr(montecarlo, "_channel_blocks", counted)
    return formed


SCREENED_FACTORS = [(1, 0.5)] + [(n, w) for n in (2, 10, 50, 200, 1000) for w in (0.5, 3.0)]


class TestOutageScreen:
    """Gain CDFs form only the draws whose mean port gain can reach the grid."""

    @pytest.mark.parametrize("ports,width", SCREENED_FACTORS)
    def test_counts_equal_the_unscreened_draws(self, ports, width, monkeypatch):
        samples, seed = 10_000, 23
        factor_t = _factor_transpose(ports, width)
        drawn = _max_gains(0, samples, [(factor_t, 2.0, None)], seed)[0]
        gains = np.sort(drawn)
        mid = 0.5 * (gains[:-1] + gains[1:])
        # The top grid point is the screen's cap. "tie" puts a grid point
        # exactly at a drawn gain, where a screened pass that rounded the
        # gain up would lose a count, so the chunk is counted again
        # unscreened. Where the screen does round some gain up (6 of the
        # 2,501 it forms at N = 50, W = 3 with OpenBLAS 0.3.31 on an AVX-512
        # Xeon), the tie sits on one of those.
        cap = gains[samples // 4]
        screened = _max_gains(0, samples, [(factor_t, 2.0, cap)], seed)[0]
        rounded = drawn[(screened <= cap) & (screened > drawn)]
        tie = rounded[0] if rounded.size else gains[samples // 10]
        grids = {
            "below": ([0.0, 0.5 * gains[0]], operator.lt),
            "across": ([mid[samples // 20], mid[samples // 4]], operator.lt),
            "tie": (sorted([tie, cap]), operator.gt),
            "above": ([mid[samples // 2], 2.0 * gains[-1]], operator.eq),
        }
        # one eigendecomposition serves every grid
        monkeypatch.setattr(montecarlo, "_factor_transpose", lambda ports, width: factor_t)
        formed = _formed_draws(monkeypatch)
        for name, (grid, versus) in grids.items():
            formed.clear()
            ests = empirical_gain_cdf(ports, width, 2.0, grid, samples, seed)
            want = np.searchsorted(gains, grid, side="right") / samples
            assert [e.value for e in ests] == list(want), name
            assert versus(sum(formed), samples), name

    @pytest.mark.parametrize("ports,width", SCREENED_FACTORS)
    def test_mean_gain_never_exceeds_the_formed_max(self, ports, width):
        # a cap below every mean screens every draw, so _max_gains returns
        # each draw's bound; the unscreened kernel forms the same draws
        count = 100_000
        factor_t = _factor_transpose(ports, width)
        bounds = _max_gains(0, count, [(factor_t, 2.0, -1.0)], 5)[0]
        means, gains = np.empty(count), np.empty(count)
        for rows, g in _channel_blocks(parallel.chunk_rng(5, 0), count, factor_t, 2.0):
            power = g[:, 0] ** 2 + g[:, 1] ** 2
            means[rows], gains[rows] = np.mean(power, axis=1), np.max(power, axis=1)
        np.testing.assert_allclose(bounds, means, rtol=1e-12, atol=0.0)
        assert np.all(bounds <= gains * (1.0 + 1e-12))

    def test_low_thresholds_form_few_draws(self, monkeypatch):
        # at N = 200 and t = 0.634 about 4% of draws are outages and about
        # 16% have a mean gain at or below t; a top grid point of 40 lies
        # above nearly every mean, so every draw is formed
        formed = _formed_draws(monkeypatch)
        empirical_gain_cdf(200, 0.5, 2.0, [0.3, 0.634], parallel.CHUNK_DRAWS, seed=8)
        assert 0 < sum(formed) <= 0.25 * parallel.CHUNK_DRAWS
        formed.clear()
        empirical_gain_cdf(200, 0.5, 2.0, [0.3, 40.0], parallel.CHUNK_DRAWS, seed=8)
        assert sum(formed) == parallel.CHUNK_DRAWS


class TestEmpiricalOutageSweep:
    @staticmethod
    def configs(users, gamma_th=0.01):
        return [SystemConfig.from_snr_db(ports=6, antenna_length=0.5, users=u,
                                         blocklength=5, snr_db=-15.0,
                                         outage_threshold=gamma_th)
                for u in users]

    def test_equals_per_point_outage(self):
        # U = 20 is saturated, U = 3 appears twice (one threshold for two
        # points), and 70,000 draws end in a ragged chunk
        configs = self.configs((3, 20, 2, 3))
        assert outage_threshold(configs[1]) == math.inf
        got = empirical_outage_sweep(configs, samples=70_000, seed=4)
        assert got == [empirical_outage(c, samples=70_000, seed=4) for c in configs]
        assert got[1] == McEstimate(value=1.0, standard_error=0.0, samples=70_000, seed=4)

    def test_all_saturated_draws_nothing(self):
        got = empirical_outage_sweep(self.configs((20, 30)), samples=5000, seed=1)
        assert [e.value for e in got] == [1.0, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_outage_sweep([], samples=5000, seed=1)
        with pytest.raises(ValueError):
            empirical_outage_sweep(self.configs((2,)), samples=999, seed=1)
        # configs on several channels are no error: each gets its own draws
        mixed = self.configs((2,)) + [SystemConfig.from_snr_db(
            ports=7, antenna_length=0.5, users=2, blocklength=5, snr_db=-15.0)]
        assert empirical_outage_sweep(mixed, samples=5000, seed=1) == [
            empirical_outage(c, samples=5000, seed=1) for c in mixed]


class TestEmpiricalStatisticalBlerSweep:
    @staticmethod
    def configs(points, ports=8):
        return [SystemConfig.from_snr_db(ports=ports, antenna_length=0.5, users=u,
                                         blocklength=5, snr_db=snr)
                for u, snr in points]

    @staticmethod
    def per_point(config, samples, seed):
        # one point drawn on its own: the chunk sums of its clamped bound
        factor_t = _factor_transpose(config.ports, config.antenna_length)

        def task(index, size):
            gains = _max_gains(index, size, [(factor_t, config.channel_variance, None)],
                               seed)[0]
            vals = conditional_bler(config.users, config.blocklength, gains,
                                    config.codeword_variance, config.noise_variance)
            return float(np.sum(vals)), float(np.sum(vals * vals))

        parts = parallel.run_chunks(task, samples)
        mean = math.fsum(p[0] for p in parts) / samples
        var = max((math.fsum(p[1] for p in parts) - samples * mean * mean)
                  / (samples - 1), 0.0)
        return McEstimate(value=mean, standard_error=math.sqrt(var / samples),
                          samples=samples, seed=seed)

    def test_equals_per_point_calls(self):
        # users and SNR vary, (4, 10 dB) repeats, and 70,000 draws end in a
        # ragged chunk
        configs = self.configs(((4, 10.0), (10, 10.0), (4, 20.0), (4, 10.0), (1, 0.0)))
        got = empirical_statistical_bler_sweep(configs, samples=70_000, seed=6)
        assert got == [self.per_point(c, 70_000, 6) for c in configs]
        assert got == [empirical_statistical_bler(c, samples=70_000, seed=6) for c in configs]
        assert len({e.value for e in got}) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_statistical_bler_sweep([], samples=5000, seed=1)
        with pytest.raises(ValueError):
            empirical_statistical_bler_sweep(self.configs(((2, 10.0),)), samples=999, seed=1)
        # configs on several channels are no error: each gets its own draws
        mixed = self.configs(((2, 10.0),)) + self.configs(((2, 10.0),), ports=7)
        assert empirical_statistical_bler_sweep(mixed, samples=5000, seed=1) == [
            empirical_statistical_bler(c, samples=5000, seed=1) for c in mixed]


# Channels of mixed rank: 7 modes at W = 0.5 (N = 5 has 5), 16 at N = 50, W = 3
MIXED_CHANNELS = [(5, 0.5), (50, 0.5), (200, 0.5), (50, 3.0)]


def _stream_sizes(monkeypatch) -> dict:
    """Spy on the chunk generators: normals drawn per (seed, index), per opening."""
    drawn, chunk_rng = {}, parallel.chunk_rng

    class Counted:
        def __init__(self, rng, tally):
            self._rng, self._tally = rng, tally

        def standard_normal(self, size=None, out=None):
            values = self._rng.standard_normal(size, out=out)
            self._tally[-1] += values.size
            return values

    def spy(seed, index):
        tally = drawn.setdefault((seed, index), [])
        tally.append(0)
        return Counted(chunk_rng(seed, index), tally)

    monkeypatch.setattr(parallel, "chunk_rng", spy)
    return drawn


class TestSharedStream:
    """The channels of one sweep read one normal stream per chunk."""

    @staticmethod
    def outage_configs():
        # U = 20 is saturated; the channels interleave in the sweep's order
        return [SystemConfig.from_snr_db(ports=n, antenna_length=w, users=u, blocklength=5,
                                         snr_db=snr, outage_threshold=0.01)
                for u, snr in ((3, -15.0), (20, -15.0), (2, -15.0), (2, -20.0))
                for n, w in MIXED_CHANNELS]

    @staticmethod
    def bler_configs():
        return [SystemConfig.from_snr_db(ports=n, antenna_length=w, users=u, blocklength=5,
                                         snr_db=snr)
                for u, snr in ((4, 10.0), (10, 20.0)) for n, w in MIXED_CHANNELS]

    @staticmethod
    def per_channel(sweep, configs, samples, seed):
        # each channel's configs in a sweep of their own
        out = {}
        for n, w in MIXED_CHANNELS:
            own = [c for c in configs if (c.ports, c.antenna_length) == (n, w)]
            out.update(zip(own, sweep(own, samples=samples, seed=seed)))
        return [out[c] for c in configs]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_outage_sweep_equals_per_channel_calls(self, workers):
        # 70,000 draws end in a ragged chunk
        configs = self.outage_configs()
        got = empirical_outage_sweep(configs, samples=70_000, seed=4, workers=workers)
        assert got == self.per_channel(empirical_outage_sweep, configs, 70_000, 4)
        # at -20 dB every channel has outages and non-outages
        assert all(0.0 < e.value < 1.0 for c, e in zip(configs, got) if c.snr < 0.02)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bler_sweep_equals_per_channel_calls(self, workers):
        configs = self.bler_configs()
        got = empirical_statistical_bler_sweep(configs, samples=70_000, seed=6, workers=workers)
        assert got == self.per_channel(empirical_statistical_bler_sweep, configs, 70_000, 6)
        assert len({e.value for e in got}) == len(configs)

    def test_forced_tie_recount_redraws_its_own_channel(self, monkeypatch):
        # a slack of a half puts a formed gain near a grid point in every
        # chunk, so every channel recounts every chunk, alone and unscreened,
        # from a fresh generator; the counts are the unscreened ones either way
        configs = self.outage_configs()
        want = empirical_outage_sweep(configs, samples=70_000, seed=4)
        monkeypatch.setattr(montecarlo, "_TIE_SLACK", 0.5)
        calls, max_gains = [], montecarlo._max_gains

        def spy(index, size, channels, seed):
            calls.append((index, [(f.shape, cap is None) for f, _, cap in channels]))
            return max_gains(index, size, channels, seed)

        monkeypatch.setattr(montecarlo, "_max_gains", spy)
        drawn = _stream_sizes(monkeypatch)
        got = empirical_outage_sweep(configs, samples=70_000, seed=4)
        assert got == want
        monkeypatch.undo()
        assert got == self.per_channel(empirical_outage_sweep, configs, 70_000, 4)
        shapes = [_factor_transpose(n, w).shape for n, w in MIXED_CHANNELS]
        for index in (0, 1):
            mine = [channels for i, channels in calls if i == index]
            assert mine[0] == [(shape, False) for shape in shapes]
            assert sorted(mine[1:]) == sorted([(shape, True)] for shape in shapes)
            assert len(drawn[4, index]) == 1 + len(MIXED_CHANNELS)

    @pytest.mark.parametrize("sweep", ["outage", "bler"])
    def test_each_chunk_draws_its_stream_once(self, sweep, monkeypatch):
        # count x 2 r_max normals per chunk, r_max being the highest rank
        configs = self.outage_configs() if sweep == "outage" else self.bler_configs()
        run = empirical_outage_sweep if sweep == "outage" else empirical_statistical_bler_sweep
        ranks = [_factor_transpose(n, w).shape[0] for n, w in MIXED_CHANNELS]
        assert len(set(ranks)) == 3
        drawn = _stream_sizes(monkeypatch)
        run(configs, samples=70_000, seed=8)
        full, rest = parallel.CHUNK_DRAWS, 70_000 - parallel.CHUNK_DRAWS
        assert drawn == {(8, 0): [full * 2 * max(ranks)], (8, 1): [rest * 2 * max(ranks)]}

    def test_memory_of_a_four_channel_sweep(self, monkeypatch):
        # the stream keeps about one screen batch buffered, never a chunk's
        # 65,536 x 14 normals (7.3 MB): beyond the one-channel peak, a sweep
        # over four channels holds three more gain arrays (512 KiB each, one
        # per channel and chunk) and at most two 512 KiB batches besides
        ports = (5, 50, 500, 1000)
        factors = {(n, 0.5): _factor_transpose(n, 0.5) for n in ports}
        monkeypatch.setattr(montecarlo, "_factor_transpose", lambda n, w: factors[n, w])

        def peak(ns):
            configs = [SystemConfig.from_snr_db(ports=n, antenna_length=0.5, users=u,
                                                blocklength=5, snr_db=-35.0,
                                                outage_threshold=1e-4)
                       for u in range(2, 21) for n in ns]
            tracemalloc.start()
            try:
                empirical_outage_sweep(configs, samples=parallel.CHUNK_DRAWS, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one channel holds its gain array, a screen batch, the batch's
        # square and a block of draws (512 KiB each), far below 7.3 MB
        single = max(peak((n,)) for n in ports)
        assert single <= 3 * 2**20
        gains = parallel.CHUNK_DRAWS * 8
        assert peak(ports) <= single + (len(ports) - 1) * gains + 2 * 2**19
