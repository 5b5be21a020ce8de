"""Error-rate and outage metrics against closed forms and quad oracles.

Hand-derivable cases anchor everything: the single-user bound collapses to
(1 + 0.5 sigma_c^2 g / sigma_eta^2)^(-M), the zero-gain bound saturates at
1, and small-U sums can be written out term by term. The statistical
average for a single exponential port was cross-computed with
scipy.integrate.quad and mpmath (0.523720870407838778, both routes to 15
digits).
"""
import math
import tracemalloc
from collections import Counter
import warnings

import numpy as np
import pytest

from fblfas import metrics, parallel
from fblfas.channel import BlockModel, SystemConfig, build_correlation, fit_block_model
from fblfas.fas_stats import GainDistribution, block_cdf_factor, block_cdf_factor_adaptive
from fblfas.metrics import (
    codeword_correlation,
    combinatorial_exponent,
    conditional_bler,
    conditional_bler_raw,
    mrc_conditional_bler,
    mrc_outage,
    outage_probability,
    outage_threshold,
    statistical_bler,
)
from fblfas.quadrature import gauss_laguerre

SINGLE_PORT_BLER = 0.523720870407838778  # scipy.quad + mpmath, M=5, U=1


def single_port_config(**overrides):
    base = dict(ports=1, antenna_length=0.5, users=1, blocklength=5,
                channel_variance=2.0, noise_variance=1.0)
    return SystemConfig(**{**base, **overrides})


def single_port_distribution():
    model = BlockModel(block_count=1, block_sizes=(1,), mu2=1e-9)
    return GainDistribution(model=model, channel_variance=2.0,
                            rule=gauss_laguerre(32))


class TestCombinatorialExponent:
    def test_small_cases(self):
        assert combinatorial_exponent(4, 2) == pytest.approx(2.0 * math.log(6.0), rel=1e-14)
        assert combinatorial_exponent(4, 0) == 0.0
        assert combinatorial_exponent(4, 4) == 0.0

    def test_matches_exact_binomial(self):
        for users, selected in ((10, 3), (50, 25), (100, 50)):
            want = 2.0 * math.log(math.comb(users, selected))
            assert combinatorial_exponent(users, selected) == pytest.approx(want, rel=1e-12)

    def test_symmetry(self):
        for k in range(8):
            assert combinatorial_exponent(7, k) == pytest.approx(
                combinatorial_exponent(7, 7 - k), rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            combinatorial_exponent(0, 0)
        with pytest.raises(ValueError):
            combinatorial_exponent(4, 5)
        with pytest.raises(ValueError):
            combinatorial_exponent(4, -1)


class TestConditionalBler:
    def test_single_user_closed_form(self):
        # U=1 keeps only the self term: (1 + 0.5 sigma_c^2 g / sigma_eta^2)^-M
        for gain in (0.5, 2.0, 10.0):
            want = (1.0 + 0.5 * 0.2 * gain / 1.0) ** -5
            got = conditional_bler(1, 5, gain, 0.2, 1.0)
            assert got == pytest.approx(want, rel=1e-13)

    def test_zero_gain_saturates(self):
        for users in (1, 2, 10):
            assert conditional_bler(users, 5, 0.0, 0.2, 1.0) == 1.0

    def test_zero_gain_raw_sum(self):
        # sum_{k=1}^{4} (k/4) C(4,k)^2 = 4 + 18 + 12 + 1 = 35
        assert conditional_bler_raw(4, 5, 0.0, 0.2, 1.0) == pytest.approx(35.0, rel=1e-12)

    def test_two_user_hand_sum(self):
        # M=3, sigma_c^2=0.5, sigma_eta^2=2, g=4:
        #   k=1: (1/2) * 4 * 1.5^-3 = 0.59259259...
        #   k=2: 1 * 2^-3 = 0.125
        want = 0.5925925925925926 + 0.125
        assert conditional_bler_raw(2, 3, 4.0, 0.5, 2.0) == pytest.approx(want, rel=1e-12)
        assert conditional_bler(2, 3, 4.0, 0.5, 2.0) == pytest.approx(want, rel=1e-12)

    def test_clamped_at_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            users = int(rng.integers(1, 30))
            gain = float(rng.uniform(0.0, 50.0))
            val = conditional_bler(users, 5, gain, 1.0 / 5.0, 1.0)
            assert 0.0 <= val <= 1.0

    def test_monotone_in_gain_and_users(self):
        gains = np.linspace(0.0, 40.0, 30)
        vals = [conditional_bler_raw(10, 5, float(g), 0.2, 1.0) for g in gains]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        for gain in (5.0, 20.0):
            low = conditional_bler_raw(2, 5, gain, 0.2, 1.0)
            high = conditional_bler_raw(10, 5, gain, 0.2, 1.0)
            assert high > low

    def test_array_matches_scalars(self):
        gains = np.array([0.0, 1.5, 7.0, 30.0])
        batch = conditional_bler_raw(8, 5, gains, 0.2, 1.0)
        singles = [conditional_bler_raw(8, 5, float(g), 0.2, 1.0) for g in gains]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    @pytest.mark.parametrize("users", [1, 2, 10, 20])
    def test_array_kernel_keeps_the_former_expression_bits(self, users):
        # the former kernel, written out: z on an (n, U) array, one fresh
        # temporary per operation, then the (n, U) product with the prefix
        gains = np.random.default_rng(users).gamma(2.0, 2.0, 100_000)
        active = np.arange(1, users + 1, dtype=float)
        prefix = active / users
        exponents = np.array([combinatorial_exponent(users, k) for k in range(1, users + 1)])
        for blocklength in (1, 5, 200):
            c = 0.5 * (1.0 / blocklength) / 0.05
            former = np.exp(exponents - blocklength * np.log1p(
                c * gains[:, None] * active)) @ prefix
            got = conditional_bler_raw(users, blocklength, gains, 1.0 / blocklength, 0.05)
            assert np.array_equal(got, former), blocklength
            # a scalar is a one-row product, whose bits may differ from the
            # same row of the n-row product
            one = np.exp(exponents - blocklength * np.log1p(
                c * gains[7:8, None] * active)) @ prefix
            assert conditional_bler_raw(users, blocklength, float(gains[7]),
                                        1.0 / blocklength, 0.05) == one[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            conditional_bler(0, 5, 1.0, 0.2, 1.0)
        with pytest.raises(ValueError):
            conditional_bler(2, 5, -1.0, 0.2, 1.0)
        with pytest.raises(ValueError):
            conditional_bler(2, 5, 1.0, 0.2, 0.0)


class TestStatisticalBler:
    def test_single_port_reference(self):
        got = statistical_bler(single_port_config(), single_port_distribution())
        assert got == pytest.approx(SINGLE_PORT_BLER, abs=1e-9)

    def test_clamped_for_overloaded_system(self):
        # ten active codewords through one port: the bound averages far
        # above 1 and must clamp
        cfg = single_port_config(users=10)
        assert statistical_bler(cfg, single_port_distribution()) == 1.0

    def test_improves_with_ports(self):
        cfg5 = SystemConfig.from_snr_db(ports=5, antenna_length=1.0, users=10,
                                        blocklength=5, snr_db=20.0)
        cfg50 = SystemConfig.from_snr_db(ports=50, antenna_length=1.0, users=10,
                                         blocklength=5, snr_db=20.0)
        dists = {
            cfg: GainDistribution(
                model=fit_block_model(build_correlation(cfg.ports, 1.0), 0.97),
                channel_variance=2.0, rule=gauss_laguerre(32))
            for cfg in (cfg5, cfg50)
        }
        assert statistical_bler(cfg50, dists[cfg50]) < statistical_bler(cfg5, dists[cfg5])

    def test_proved_clamp_skips_the_integral(self, monkeypatch):
        # at 0 dB the raw bound averages far above 1; the integral of a
        # bound near 1e5 at low gain cannot meet its absolute tolerance and
        # used to warn after 131,056 density calls
        calls = []
        monkeypatch.setattr(metrics, "pdf_gfas", lambda *a: calls.append(a))
        cfg = SystemConfig.from_snr_db(ports=1000, antenna_length=0.5, users=10,
                                       blocklength=5, snr_db=0.0)
        dist = GainDistribution(model=fit_block_model(build_correlation(1000, 0.5), 0.97),
                                channel_variance=2.0, rule=gauss_laguerre(32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert statistical_bler(cfg, dist) == 1.0
        assert calls == []

    def test_rejects_mismatched_config(self):
        cfg = single_port_config(ports=3)
        with pytest.raises(ValueError):
            statistical_bler(cfg, single_port_distribution())
        cfg = single_port_config(channel_variance=1.0)
        with pytest.raises(ValueError):
            statistical_bler(cfg, single_port_distribution())


class TestOutage:
    def test_codeword_correlation_values(self):
        assert codeword_correlation(5) == pytest.approx(0.396332729760601101, rel=1e-14)
        assert codeword_correlation(1) == pytest.approx(0.886226925452758014, rel=1e-14)

    def test_threshold_single_user(self):
        cfg = single_port_config(noise_variance=3.0, outage_threshold=0.25)
        spec = outage_threshold(cfg)
        assert spec.t_th == pytest.approx(0.75, rel=1e-14)
        assert not spec.saturated

    def test_threshold_with_interference(self):
        cfg = SystemConfig(ports=1, antenna_length=0.5, users=20, blocklength=5,
                           channel_variance=2.0, noise_variance=1.0,
                           outage_threshold=1e-3)
        spec = outage_threshold(cfg)
        assert spec.rho_bar == pytest.approx(0.396332729760601101, rel=1e-13)
        assert spec.t_th == pytest.approx(0.00120424825640435141, rel=1e-12)

    def test_saturation(self):
        # interference denominator goes non-positive: outage is certain
        cfg = SystemConfig(ports=1, antenna_length=0.5, users=20, blocklength=5,
                           channel_variance=2.0, noise_variance=1.0,
                           outage_threshold=0.1)
        spec = outage_threshold(cfg)
        assert spec.saturated
        assert mrc_outage(1, cfg) == 1.0
        assert outage_probability(cfg, single_port_distribution()) == 1.0

    def test_mrc_reference_value(self):
        # five branches, t_th/sigma^2 = 2: regularized lower gamma(5, 2)
        cfg = single_port_config(noise_variance=4.0, outage_threshold=1.0)
        assert mrc_outage(5, cfg) == pytest.approx(0.0526530173437111567, rel=1e-12)
        assert mrc_outage(1, cfg) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)

    def test_mrc_diversity_ordering(self):
        cfg = single_port_config(noise_variance=1.0, outage_threshold=0.5)
        values = [mrc_outage(b, cfg) for b in (1, 2, 3, 5)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_outage_probability_is_cdf_at_threshold(self):
        from fblfas.fas_stats import cdf_gfas

        dist = _fig_distribution()
        cfg = SystemConfig(ports=10, antenna_length=0.5, users=4, blocklength=5,
                           channel_variance=2.0, noise_variance=2.0,
                           outage_threshold=0.05)
        spec = outage_threshold(cfg)
        assert outage_probability(cfg, dist) == pytest.approx(
            cdf_gfas(dist, spec.t_th), rel=1e-13)

    def test_validation(self):
        cfg = single_port_config()
        with pytest.raises(ValueError):
            mrc_outage(0, cfg)


class TestMrcConditionalBler:
    def test_single_branch_matches_quad_oracle(self):
        # the L=1 gain is Exp(2), so the average equals the frozen
        # single-port statistical bound
        cfg = single_port_config()
        got = mrc_conditional_bler(1, cfg, trials=200_000, seed=13)
        assert abs(got - SINGLE_PORT_BLER) < 3.0 * 0.3 / math.sqrt(200_000)

    def test_diversity_ordering(self):
        cfg = SystemConfig.from_snr_db(ports=1, antenna_length=0.5, users=10,
                                       blocklength=5, snr_db=20.0)
        one = mrc_conditional_bler(1, cfg, trials=100_000, seed=2)
        two = mrc_conditional_bler(2, cfg, trials=100_000, seed=2)
        assert two < one

    def test_deterministic_across_workers(self):
        cfg = single_port_config(users=3)
        a = mrc_conditional_bler(2, cfg, trials=150_000, seed=7, workers=1)
        b = mrc_conditional_bler(2, cfg, trials=150_000, seed=7, workers=8)
        assert a == b

    def test_bounded(self):
        cfg = single_port_config(users=10, noise_variance=100.0)
        val = mrc_conditional_bler(3, cfg, trials=20_000, seed=1)
        assert 0.0 <= val <= 1.0

    def test_peak_memory_below_two_term_arrays_per_chunk(self):
        # the former kernel held z, log1p(z) and one more (n, U) temporary
        # at once, 3.1 arrays at its peak
        cfg = single_port_config(users=10)
        mrc_conditional_bler(2, cfg, trials=1000, seed=1)
        tracemalloc.start()
        try:
            mrc_conditional_bler(2, cfg, trials=100_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * parallel.CHUNK_DRAWS * 10 * 8


class TestMrcConditionalBlerSweep:
    CONFIGS = [single_port_config(users=10, noise_variance=0.05),
               single_port_config(users=3, noise_variance=0.5),
               single_port_config(users=10, noise_variance=0.05),  # repeated
               single_port_config(users=4, blocklength=9, noise_variance=0.01),
               single_port_config(users=10, noise_variance=0.05, antenna_length=2.0)]

    def test_equals_per_point_calls(self):
        # two full chunks and a ragged third
        trials = 2 * parallel.CHUNK_DRAWS + 4321
        for branches in (1, 3):
            got = mrc_conditional_bler(branches, self.CONFIGS, trials, seed=11)
            want = [mrc_conditional_bler(branches, c, trials, seed=11) for c in self.CONFIGS]
            assert got == want
        assert got[0] == got[2] == got[4]

    def test_each_distinct_bound_runs_once_per_chunk(self, monkeypatch):
        # configs 0, 2 and 4 differ only in the aperture, which the bound
        # does not read: three distinct bounds on each of the three chunks
        seen = Counter()
        bound = metrics.conditional_bler

        def counted(users, blocklength, gain, codeword_variance, noise_variance):
            seen[users, blocklength, noise_variance, np.size(gain)] += 1
            return bound(users, blocklength, gain, codeword_variance, noise_variance)

        monkeypatch.setattr(metrics, "conditional_bler", counted)
        sizes = parallel.chunk_sizes(2 * parallel.CHUNK_DRAWS + 4321)
        mrc_conditional_bler(2, self.CONFIGS, sum(sizes), seed=11)
        assert seen == Counter({(users, blocklength, noise, size): sizes.count(size)
                                for users, blocklength, noise in
                                ((10, 5, 0.05), (3, 5, 0.5), (4, 9, 0.01))
                                for size in sizes})

    def test_validation(self):
        with pytest.raises(ValueError):
            mrc_conditional_bler(1, [], 1000, seed=1)
        with pytest.raises(ValueError):
            mrc_conditional_bler(1, [single_port_config(),
                                     single_port_config(channel_variance=1.0)],
                                 1000, seed=1)
        with pytest.raises(ValueError):
            mrc_conditional_bler(0, [single_port_config()], 1000, seed=1)


@pytest.fixture(scope="module")
def dense_distribution():
    model = fit_block_model(build_correlation(500, 0.5), 0.97)
    return GainDistribution(model=model, channel_variance=2.0,
                            rule=gauss_laguerre(32))


class TestSelectionGainRegimes:
    """Outage improvement of port selection over a single fixed antenna.

    The ratio mrc_outage(1)/outage_probability(N) depends strongly on where
    the threshold t_th sits relative to the gain distribution. These pins
    freeze the measured behaviour at two operating points of a dense
    N = 500, W = 0.5 array so regressions in the block model or the outage
    chain show up as ratio drift.
    """

    def test_deep_threshold_ratio_band(self, dense_distribution):
        # low target rate, very low SNR: t_th lands in the bulk of the
        # distribution and selection buys a bit over two orders of magnitude
        best = 0.0
        for users in range(2, 21):
            cfg = SystemConfig.from_snr_db(
                ports=500, antenna_length=0.5, users=users, blocklength=5,
                snr_db=-35.0, outage_threshold=1e-4)
            ratio = mrc_outage(1, cfg) / outage_probability(cfg, dense_distribution)
            best = max(best, ratio)
        assert 100.0 <= best <= 200.0

    def test_tail_threshold_ratio_floor(self, dense_distribution):
        # moderate SNR pushes t_th into the left tail where selection
        # collapses the outage by almost eight orders of magnitude: the
        # ratio measures 9.41e7 at every rule order from 32 to 256. The
        # outage there is about 1e-9, so the adaptive oracle runs with a
        # tolerance relative to each block factor as an independent check
        cfg = SystemConfig.from_snr_db(
            ports=500, antenna_length=0.5, users=20, blocklength=5,
            snr_db=-20.0, outage_threshold=1e-3)
        outage = outage_probability(cfg, dense_distribution)
        ratio = mrc_outage(1, cfg) / outage
        assert 9e7 <= ratio <= 1e8
        t_ref = 2.0 * outage_threshold(cfg).t_th / cfg.channel_variance
        oracle = 1.0
        for size in dense_distribution.model.block_sizes:
            guess = block_cdf_factor(0.97, size, t_ref)
            oracle *= block_cdf_factor_adaptive(0.97, size, t_ref, tol=1e-8 * guess)
        assert outage == pytest.approx(oracle, rel=1e-6)


def _fig_distribution():
    model = fit_block_model(build_correlation(10, 0.5), 0.97)
    return GainDistribution(model=model, channel_variance=2.0,
                            rule=gauss_laguerre(32))
