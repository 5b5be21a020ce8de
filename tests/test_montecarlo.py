"""Simulation estimates: closed-form marginals, determinism, error bars.

A single port draws an Exp(sigma2) gain, which gives exact targets for
every estimator here. The multi-port checks lean on the determinism
contract (bit-identical output for any worker count) and on agreement
with the analytic chain within a few standard errors plus the known
block-approximation slack.
"""
import math
import tracemalloc

import numpy as np
import pytest

from fblfas import parallel
from fblfas.channel import (
    SystemConfig,
    build_correlation,
    eigen_factor,
    fit_block_model,
    sample_channels,
)
from fblfas.fas_stats import GainDistribution, cdf_gfas
from fblfas.metrics import outage_threshold
from fblfas.montecarlo import (
    McEstimate,
    _factor_transpose,
    _max_gains,
    empirical_gain_cdf,
    empirical_outage,
    empirical_outage_sweep,
    empirical_statistical_bler,
)
from fblfas.quadrature import gauss_laguerre

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
        assert outage_threshold(cfg).t_th == pytest.approx(1.0)
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
        analytic = cdf_gfas(dist, outage_threshold(cfg).t_th)
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
            lambda index, size: _max_gains(index, size, factor_t, 2.0, 13), 70_000))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_factor_is_memoised_read_only(self):
        a = _factor_transpose(30, 0.7)
        assert _factor_transpose(30, 0.7) is a
        assert not a.flags.writeable
        np.testing.assert_array_equal(a, eigen_factor(build_correlation(30, 0.7)).factor.T)

    def test_outage_memory_stays_bounded(self):
        # 65,536 draws at N = 1000 are 1 GiB as one complex channel array;
        # the draws are reduced block by block instead
        cfg = SystemConfig(ports=1000, antenna_length=0.5, users=2, blocklength=5,
                           channel_variance=2.0, noise_variance=50.0,
                           outage_threshold=0.01)
        _factor_transpose.cache_clear()
        tracemalloc.start()
        try:
            empirical_outage(cfg, samples=65_536, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


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
        assert outage_threshold(configs[1]).saturated
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
        mixed = self.configs((2,)) + [SystemConfig.from_snr_db(
            ports=7, antenna_length=0.5, users=2, blocklength=5, snr_db=-15.0)]
        with pytest.raises(ValueError):
            empirical_outage_sweep(mixed, samples=5000, seed=1)
