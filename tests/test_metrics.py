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
import warnings

import numpy as np
import pytest

from fblfas import metrics, parallel
from fblfas.channel import BlockModel, SystemConfig, build_correlation, fit_block_model
from fblfas.fas_stats import (
    GainDistribution,
    block_cdf_factor,
    block_cdf_factor_adaptive,
    cdf_gfas,
    pdf_gfas,
    quantile,
)
from fblfas.metrics import (
    codeword_correlation,
    combinatorial_exponent,
    conditional_bler,
    conditional_bler_raw,
    mrc_conditional_bler,
    mrc_outage,
    mrc_statistical_bler,
    outage_probability,
    outage_threshold,
    statistical_bler,
)
from fblfas.montecarlo import empirical_statistical_bler
from fblfas.quadrature import gauss_laguerre, integrate_adaptive

SINGLE_PORT_BLER = 0.523720870407838778  # scipy.quad + mpmath, M=5, U=1


def single_port_config(**overrides):
    base = dict(ports=1, antenna_length=0.5, users=1, blocklength=5,
                channel_variance=2.0, noise_variance=1.0)
    return SystemConfig(**{**base, **overrides})


def single_port_distribution():
    model = BlockModel(block_sizes=(1,), mu2=1e-9)
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
        # ten active codewords through one port: the raw bound averages far
        # above 1, the clamped one stays below it; one port's gain is
        # Exp(sigma^2), the one-branch MRC gain
        cfg = single_port_config(users=10)
        got = statistical_bler(cfg, single_port_distribution())
        assert got == pytest.approx(mrc_statistical_bler(1, cfg), rel=1e-12, abs=0.0)
        assert got < 1.0

    @pytest.mark.parametrize("mu2", [1e-9, 0.97])
    def test_one_port_is_the_single_branch_mrc_average(self, mu2):
        # a one-port block model is the exponential marginal whatever mu2,
        # so both averages sum one law by one routine
        dist = GainDistribution(model=BlockModel((1,), mu2), channel_variance=2.0)
        for users in (1, 4, 10, 20):
            for blocklength in (5, 100):
                for snr in range(0, 55, 5):
                    cfg = SystemConfig.from_snr_db(ports=1, antenna_length=0.5, users=users,
                                                   blocklength=blocklength, snr_db=snr)
                    assert statistical_bler(cfg, dist) == pytest.approx(
                        mrc_statistical_bler(1, cfg), rel=1e-12, abs=0.0), (users, blocklength, snr)

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

    @staticmethod
    def fitted(ports, width, mu2):
        return GainDistribution(model=fit_block_model(build_correlation(ports, width), mu2),
                                channel_variance=2.0, rule=gauss_laguerre(32))

    @pytest.mark.parametrize("ports, width, mu2, users", [
        (1000, 0.5, 0.97, 10), (50, 1.0, 0.1, 15), (1000, 1.0, 0.5, 15)])
    def test_low_snr_points_stop_once_the_sum_reaches_one(self, monkeypatch, ports, width,
                                                          mu2, users):
        # at 0 dB the raw bound averages far above 1 and the clamped one
        # sits near it: the kink lies high, the head F(s) holds nearly all
        # of the sum, and few panels lie between the kink and the top edge.
        # The former adaptive integral of a bound near 1e5 at low gain
        # warned at the first point after 131,056 density calls; the former
        # one-probe clamp proof missed the other two (of five at U = 15,
        # M = 5, W = 1), which then ran 8.5-18 s, warned that they did not
        # converge and returned 1
        cfg = SystemConfig.from_snr_db(ports=ports, antenna_length=width, users=users,
                                       blocklength=5, snr_db=0.0)
        dist = self.fitted(ports, width, mu2)
        calls = self.counted_densities(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = statistical_bler(cfg, dist)
        assert len(calls) <= 5 * metrics._PANEL_ORDER
        monkeypatch.undo()
        assert got == pytest.approx(self.adaptive_average(cfg, dist, got), rel=1e-8, abs=0.0)

    @staticmethod
    def adaptive_average(cfg, dist, scale):
        """E[min(h(G), 1)] by the adaptive oracle in u = ln t, to 1e-10 of scale.

        Below the gain t1 where h falls to 1 (bisected here; 0 when h(0) <= 1,
        as at U = 1) the clamped bound is 1, so that part is F(t1). Above it
        h f t is integrated from the larger of t1 and the first whole e-fold
        below sigma^2 where F is at most 1e-13 of scale, up to the gain
        quantile 1 - 1e-13; the range is cut into e-fold pieces, so that no
        peak narrower than the range can slip between the first panel's
        nodes.
        """
        active, bound = metrics._union_bound(cfg.users, cfg.blocklength)
        coef = 0.5 * cfg.codeword_variance / cfg.noise_variance * active

        def h(t):
            return float(bound(t * coef))

        kink = 0.0
        if h(0.0) > 1.0:
            hi = dist.channel_variance
            while h(hi) > 1.0:
                hi *= 2.0
            while hi - kink > 1e-15 * hi:
                mid = 0.5 * (kink + hi)
                kink, hi = (mid, hi) if h(mid) > 1.0 else (kink, mid)
        head = cdf_gfas(dist, kink)

        def integrand(u):
            t = np.exp(np.atleast_1d(u))
            return np.array([pdf_gfas(dist, x) for x in t]) * bound(t[:, None] * coef) * t

        hi = math.log(quantile(dist, 1.0 - 1e-13))
        lo = math.log(dist.channel_variance)
        while cdf_gfas(dist, math.exp(lo)) > 1e-13 * scale:
            lo -= 1.0
        if kink > 0.0:
            lo = max(lo, math.log(kink))
        if lo >= hi:
            return head
        edges = np.linspace(lo, hi, math.ceil(hi - lo) + 1)
        pieces = [integrate_adaptive(integrand, a, b, tol=1e-10 * scale / (len(edges) - 1))
                  for a, b in zip(edges[:-1], edges[1:])]
        assert all(piece.converged for piece in pieces)
        return head + math.fsum(piece.value for piece in pieces)

    # (ports, mu2, SNR in dB, blocklength, users), all at W = 1 and all
    # averaging below 1; at most 4.0e-12 apart when restated for the
    # clamped average
    ORACLE_GRID = [
        (5, 0.1, 0.0, 5, 1), (5, 0.5, 20.0, 100, 20), (5, 0.99, 40.0, 5, 20),
        (5, 0.99, 10.0, 100, 1), (50, 0.1, 40.0, 100, 1), (50, 0.5, 20.0, 5, 20),
        (50, 0.99, 0.0, 100, 1), (1000, 0.1, 20.0, 5, 20), (1000, 0.5, 40.0, 100, 20),
        (1000, 0.5, 0.0, 5, 1), (5000, 0.1, 10.0, 100, 1), (5000, 0.99, 30.0, 5, 20),
    ]

    @pytest.mark.parametrize("ports, mu2, snr_db, blocklength, users", ORACLE_GRID)
    def test_matches_the_adaptive_oracle(self, ports, mu2, snr_db, blocklength, users):
        cfg = SystemConfig.from_snr_db(ports=ports, antenna_length=1.0, users=users,
                                       blocklength=blocklength, snr_db=snr_db)
        dist = self.fitted(ports, 1.0, mu2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = statistical_bler(cfg, dist)
        assert 0.0 < got < 1.0
        assert got == pytest.approx(self.adaptive_average(cfg, dist, got), rel=1e-8, abs=0.0)

    def test_cut_panel_interpolation_is_exact_for_its_polynomials(self):
        # values on the 24 Legendre nodes fix a polynomial of degree 23,
        # which the barycentric form reproduces anywhere in the panel; a
        # point on a node reads that node's value
        nodes = metrics._panel_rule(metrics._PANEL_ORDER).nodes
        points = np.append(np.linspace(-1.0, 1.0, 11), nodes[5])
        matrix = metrics._interpolation(points)
        rng = np.random.default_rng(4)
        for degree in (0, 7, metrics._PANEL_ORDER - 1):
            coefficients = rng.normal(size=degree + 1)
            np.testing.assert_allclose(
                matrix @ np.polynomial.polynomial.polyval(nodes, coefficients),
                np.polynomial.polynomial.polyval(points, coefficients), rtol=0.0, atol=1e-12)
        assert np.array_equal(matrix[-1], np.eye(metrics._PANEL_ORDER)[5])

    @staticmethod
    def counted_densities(monkeypatch):
        # the densities statistical_bler asks for, a panel's nodes at a time
        calls = []
        evaluate = metrics._evaluate

        def counted(dist, ts):
            calls.extend(ts)
            return evaluate(dist, ts)

        monkeypatch.setattr(metrics, "_evaluate", counted)
        return calls

    # (ports, mu2, SNR in dB, users, panels) at M = 1000 and W = 1: h falls by
    # tens of orders of magnitude within a few panels above the kink, so the
    # tail bound drops most panels below the top edge (132, 214, 106 and 132
    # panels were summed before); at U = 1 the kink lies far below the bulk
    @pytest.mark.parametrize("ports, mu2, snr_db, users, panels", [
        (5, 0.97, 45.3, 10, 34), (5, 0.5, 50.0, 1, 105), (50, 0.5, 40.0, 20, 37),
        (50, 0.99, 50.0, 5, 35)])
    def test_long_blocks_at_high_snr_match_the_adaptive_oracle(self, monkeypatch, ports, mu2,
                                                               snr_db, users, panels):
        cfg = SystemConfig.from_snr_db(ports=ports, antenna_length=1.0, users=users,
                                       blocklength=1000, snr_db=snr_db)
        dist = self.fitted(ports, 1.0, mu2)
        calls = self.counted_densities(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = statistical_bler(cfg, dist)
        assert len(calls) <= panels * metrics._PANEL_ORDER
        monkeypatch.undo()
        assert 0.0 < got < 1.0
        assert got == pytest.approx(self.adaptive_average(cfg, dist, got), rel=1e-8, abs=0.0)

    def test_an_underflowing_long_block_point_runs_a_handful_of_panels(self, monkeypatch):
        # the average underflows to 0: h underflows a few panels above the
        # kink, and the tail bound drops every panel above that edge (all
        # 105 between the kink and the top edge were summed before)
        cfg = SystemConfig.from_snr_db(ports=200, antenna_length=1.0, users=10,
                                       blocklength=1000, snr_db=57.7)
        dist = self.fitted(200, 1.0, 0.9)
        calls = self.counted_densities(monkeypatch)
        assert statistical_bler(cfg, dist) == 0.0
        assert len(calls) <= 5 * metrics._PANEL_ORDER

    def test_curves_read_the_gain_law_only_on_the_shared_grid(self, monkeypatch):
        # FAS and MRC points alike ask for CDFs only at the edges
        # sigma^2 e^(j/m) and for densities only on whole panels between
        # them, the one that holds the kink included
        asked = []
        average = metrics._clamped_average

        def recording(config, variance, cdf, density, per_efold):
            m = max(math.ceil(math.sqrt(config.blocklength) / 3.0), per_efold)

            def cdf_at(t):
                asked.append((variance, m, "cdf", t))
                return cdf(t)

            def density_at(t):
                asked.append((variance, m, "density", t))
                return density(t)

            return average(config, variance, cdf_at, density_at, per_efold)

        monkeypatch.setattr(metrics, "_clamped_average", recording)
        dist = self.fitted(50, 1.0, 0.5)
        for blocklength in (5, 100):
            for snr_db in np.arange(0.0, 41.0, 2.5):
                for users in (1, 4, 20):
                    cfg = SystemConfig.from_snr_db(ports=50, antenna_length=1.0, users=users,
                                                   blocklength=blocklength, snr_db=snr_db)
                    statistical_bler(cfg, dist)
                    for branches in (1, 2, 64):
                        mrc_statistical_bler(branches, cfg)
        offsets = 0.5 + 0.5 * metrics._panel_rule(metrics._PANEL_ORDER).nodes
        kinds = set()
        for variance, m, kind, t in asked:
            kinds.add((m, kind))
            if kind == "cdf":
                assert t == variance * math.exp(round(m * math.log(t / variance)) / m)
            else:
                j = round(m * math.log(t[0] / variance) - offsets[0])
                assert np.array_equal(t, variance * np.exp((j + offsets) / m))
        assert kinds == {(m, kind) for m in (1, 4) for kind in ("cdf", "density")}

    @pytest.mark.parametrize("ports", [5, 50])
    def test_never_rises_with_snr(self, ports):
        # the cut panel crosses grid edges as the kink moves with the SNR;
        # the curve must not step up there
        dist = self.fitted(ports, 0.5, 0.97)
        values = [statistical_bler(SystemConfig.from_snr_db(
            ports=ports, antenna_length=0.5, users=10, blocklength=5,
            snr_db=10.0 + 0.05 * k), dist) for k in range(401)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("ports", [5, 50])
    def test_never_falls_with_users(self, ports):
        dist = self.fitted(ports, 0.5, 0.97)
        values = [statistical_bler(SystemConfig.from_snr_db(
            ports=ports, antenna_length=0.5, users=users, blocklength=5, snr_db=20.0), dist)
            for users in range(1, 21)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("snr_db", [16.0, 22.0])
    def test_agrees_with_the_monte_carlo_overlay(self, snr_db):
        # both estimate E[min(h(G), 1)]; at N = 5 the block model is close
        # to the exact channel, so they agree within the overlay's noise
        # and the model error (the raw average, clamped after averaging,
        # was 6 and 10 times the overlay here)
        cfg = SystemConfig.from_snr_db(ports=5, antenna_length=0.5, users=10,
                                       blocklength=5, snr_db=snr_db)
        estimate = empirical_statistical_bler(cfg, samples=100_000, seed=1)
        got = statistical_bler(cfg, self.fitted(5, 0.5, 0.97))
        assert got == pytest.approx(estimate.value, rel=0.15)

    def test_points_of_one_distribution_share_densities(self):
        # the panel edges depend only on sigma^2 and M, so a second SNR
        # reads the first one's densities and edge CDFs, all from one memo
        # of (CDF, density) pairs, and computes only the panels it adds
        # below them; the panel that holds its kink is a whole grid panel
        # too (here it adds none of its 144 densities; 24 when it cut that
        # panel on nodes of its own, and all 144 without the shared grid)
        dist = self.fitted(50, 1.0, 0.5)

        def at(snr_db):
            return statistical_bler(SystemConfig.from_snr_db(
                ports=50, antenna_length=1.0, users=10, blocklength=5, snr_db=snr_db), dist)

        first = at(20.0)
        one = dict(dist._memo)
        assert at(36.0) < first
        assert dist._memo == one

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
        t_th = outage_threshold(cfg)
        assert t_th == pytest.approx(0.75, rel=1e-14)
        assert math.isfinite(t_th)

    def test_threshold_with_interference(self):
        cfg = SystemConfig(ports=1, antenna_length=0.5, users=20, blocklength=5,
                           channel_variance=2.0, noise_variance=1.0,
                           outage_threshold=1e-3)
        # rho = codeword_correlation(5) enters through U rho + 1
        rho = codeword_correlation(5)
        assert rho == pytest.approx(0.396332729760601101, rel=1e-13)
        assert outage_threshold(cfg) == pytest.approx(0.00120424825640435141, rel=1e-12)
        assert outage_threshold(cfg) == 1e-3 / (1.0 - 19 * (20 * rho + 1.0) * 1e-3)

    def test_saturation(self):
        # interference denominator goes non-positive: outage is certain
        cfg = SystemConfig(ports=1, antenna_length=0.5, users=20, blocklength=5,
                           channel_variance=2.0, noise_variance=1.0,
                           outage_threshold=0.1)
        assert outage_threshold(cfg) == math.inf
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
        assert outage_probability(cfg, dist) == pytest.approx(
            cdf_gfas(dist, outage_threshold(cfg)), rel=1e-13)

    def test_validation(self):
        cfg = single_port_config()
        with pytest.raises(ValueError):
            mrc_outage(0, cfg)


class TestMrcStatisticalBler:
    # E[min(h(G), 1)] for G ~ Gamma(L, 2) at blocklength M, keyed by
    # (L, U, M, SNR dB): the incomplete gamma below the gain where h = 1
    # plus mpmath.quad of h times the density above it, at 50 digits, with
    # breakpoints a factor 2 apart and again 1.3 apart (the two agree to
    # 7e-22 or better); U = 1 has h(0) = 1 and no head
    REFERENCES = {
        (1, 1, 5, 0): 0.6805580824503411,
        (1, 1, 5, 10): 0.1915144734301331,
        (1, 1, 5, 20): 0.024205006101060297,
        (1, 1, 5, 28): 0.003941463994908439,
        (1, 1, 5, 40): 0.00024991670829193073,
        (1, 1, 5, 50): 2.499916670832917e-05,
        (1, 10, 5, 0): 0.999999999658769,
        (1, 10, 5, 10): 0.9118842950005192,
        (1, 10, 5, 20): 0.22578156605114297,
        (1, 10, 5, 28): 0.04006836988284978,
        (1, 10, 5, 40): 0.0025809740806151003,
        (1, 10, 5, 50): 0.0002584230988373309,
        (1, 4, 20, 0): 0.99429703019263,
        (1, 4, 20, 10): 0.4419110843409752,
        (1, 4, 20, 20): 0.05819164736472533,
        (1, 4, 20, 28): 0.009485145478074776,
        (1, 4, 20, 40): 0.0006014700760245494,
        (1, 4, 20, 50): 6.0165253296508494e-05,
        (1, 30, 50, 0): 0.9999976491024347,
        (1, 30, 50, 10): 0.7342748351172915,
        (1, 30, 50, 20): 0.12464124649818044,
        (1, 30, 50, 28): 0.020887029069973077,
        (1, 30, 50, 40): 0.0013310657418137098,
        (1, 30, 50, 50): 0.00013318704938378978,
        (2, 1, 5, 0): 0.4721868456952239,
        (2, 1, 5, 10): 0.04242763284933457,
        (2, 1, 5, 20): 0.0007594749856527897,
        (2, 1, 5, 28): 2.0607950438770436e-05,
        (2, 1, 5, 40): 8.325012398509024e-08,
        (2, 1, 5, 50): 8.332500124860261e-10,
        (2, 10, 5, 0): 0.999999992545066,
        (2, 10, 5, 10): 0.7062690551021601,
        (2, 10, 5, 20): 0.02946150212692439,
        (2, 10, 5, 28): 0.000879531288156542,
        (2, 10, 5, 40): 3.6152469464172196e-06,
        (2, 10, 5, 50): 3.622329601552084e-08,
        (2, 4, 20, 0): 0.9669827239426273,
        (2, 4, 20, 10): 0.12517611321776984,
        (2, 4, 20, 20): 0.001924627154950304,
        (2, 4, 20, 28): 5.0514474204096215e-05,
        (2, 4, 20, 40): 2.0268177877887734e-07,
        (2, 4, 20, 50): 2.027780996916753e-09,
        (2, 30, 50, 0): 0.9999676325421936,
        (2, 30, 50, 10): 0.3836827751278244,
        (2, 30, 50, 20): 0.008176546455154666,
        (2, 30, 50, 28): 0.00022151883775202357,
        (2, 30, 50, 40): 8.938047165028937e-07,
        (2, 30, 50, 50): 8.945332279338438e-09,
        (4, 1, 5, 0): 0.2396524913864113,
        (4, 1, 5, 10): 0.0032405732667141153,
        (4, 1, 5, 20): 2.1709787512595145e-06,
        (4, 1, 5, 28): 2.1895118119156215e-09,
        (4, 1, 5, 40): 4.078940127628354e-14,
        (4, 1, 5, 50): 4.154079993234149e-18,
        (4, 10, 5, 0): 0.9999994006187978,
        (4, 10, 5, 10): 0.2594283713388573,
        (4, 10, 5, 20): 0.0002650311007959102,
        (4, 10, 5, 28): 2.554065648960339e-07,
        (4, 10, 5, 40): 4.6031617160826345e-12,
        (4, 10, 5, 50): 4.665073266599048e-16,
        (4, 4, 20, 0): 0.7904004388471761,
        (4, 4, 20, 10): 0.005486477299515796,
        (4, 4, 20, 20): 1.1875849148757817e-06,
        (4, 4, 20, 28): 8.14172571643749e-10,
        (4, 4, 20, 40): 1.3097458070730022e-14,
        (4, 4, 20, 50): 1.3109323637323065e-18,
        (4, 30, 50, 0): 0.9989566274831269,
        (4, 30, 50, 10): 0.047289245510034425,
        (4, 30, 50, 20): 1.2470297418361899e-05,
        (4, 30, 50, 28): 8.645189800347616e-09,
        (4, 30, 50, 40): 1.393220325812276e-13,
        (4, 30, 50, 50): 1.3946306934250298e-17,
        (8, 1, 5, 0): 0.07391017803314939,
        (8, 1, 5, 10): 8.732492133115427e-05,
        (8, 1, 5, 20): 3.1741243202729183e-09,
        (8, 1, 5, 28): 3.8176870321338434e-13,
        (8, 1, 5, 40): 3.9583627074310845e-19,
        (8, 1, 5, 50): 3.9672622018340495e-24,
        (8, 10, 5, 0): 0.9998253123484088,
        (8, 10, 5, 10): 0.012787739680612767,
        (8, 10, 5, 20): 2.597326249791745e-07,
        (8, 10, 5, 28): 2.8073181253715704e-11,
        (8, 10, 5, 40): 2.84927480291163e-17,
        (8, 10, 5, 50): 2.8518817084371493e-22,
        (8, 4, 20, 0): 0.26204931719524815,
        (8, 4, 20, 10): 9.222812697227634e-06,
        (8, 4, 20, 20): 6.625068373658127e-13,
        (8, 4, 20, 28): 3.3310180905032346e-19,
        (8, 4, 20, 40): 8.730979209026603e-29,
        (8, 4, 20, 50): 8.75365726914378e-37,
        (8, 30, 50, 0): 0.9484026670106931,
        (8, 30, 50, 10): 9.745324803582898e-05,
        (8, 30, 50, 20): 3.498359162710694e-12,
        (8, 30, 50, 28): 1.586152686556758e-18,
        (8, 30, 50, 40): 4.077785545730893e-28,
        (8, 30, 50, 50): 4.083536403989864e-36,
    }

    @staticmethod
    def config(users, blocklength, snr_db):
        return SystemConfig.from_snr_db(ports=1, antenna_length=0.5, users=users,
                                        blocklength=blocklength, snr_db=snr_db)

    def test_matches_mpmath_references(self):
        for (branches, users, blocklength, snr), want in self.REFERENCES.items():
            got = mrc_statistical_bler(branches, self.config(users, blocklength, snr))
            assert got == pytest.approx(want, rel=1e-10, abs=0.0), (branches, users, snr)
        # the L = 1 gain is Exp(2), so the average is the single-port bound
        assert mrc_statistical_bler(1, single_port_config()) == pytest.approx(
            SINGLE_PORT_BLER, rel=1e-13)

    def test_agrees_with_monte_carlo(self):
        # min(h, 1) lies in [0, 1], so sqrt(p (1 - p) / n) bounds the
        # standard error of the seeded mean
        trials = 200_000
        for users, blocklength in ((10, 5), (4, 20)):
            for snr in (10.0, 20.0):
                cfg = self.config(users, blocklength, snr)
                for branches in (1, 2):
                    want = mrc_statistical_bler(branches, cfg)
                    got = mrc_conditional_bler(branches, cfg, trials, seed=21)
                    se = math.sqrt(want * (1.0 - want) / trials)
                    assert abs(got - want) <= 4.0 * se, (users, snr, branches)

    def test_monotone_and_bounded(self):
        for users, blocklength in ((1, 5), (10, 5), (30, 50)):
            grid = [[mrc_statistical_bler(branches, self.config(users, blocklength, snr))
                     for snr in range(0, 55, 5)] for branches in (1, 2, 3, 4, 8)]
            for row in grid:
                assert all(0.0 < v <= 1.0 for v in row)
                assert all(b <= a for a, b in zip(row, row[1:]))
            for fewer, more in zip(grid, grid[1:]):
                assert all(b <= a for a, b in zip(fewer, more))

    def test_single_user_and_high_snr_are_finite_and_positive(self):
        # with U = 1 the bound starts at exactly 1, so no gain has h = 1
        # above 0; the head is still cut above 0 and the panels start there
        for users, blocklength in ((1, 5), (1, 50), (10, 5)):
            for snr in (40.0, 50.0, 60.0):
                for branches in (1, 8):
                    value = mrc_statistical_bler(branches, self.config(users, blocklength, snr))
                    assert math.isfinite(value) and value > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mrc_statistical_bler(0, single_port_config())


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

    def test_validation(self):
        for branches, trials in ((0, 1000), (1, 0)):
            with pytest.raises(ValueError):
                mrc_conditional_bler(branches, single_port_config(), trials, seed=1)


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
        t_ref = 2.0 * outage_threshold(cfg) / cfg.channel_variance
        oracle = 1.0
        for size in dense_distribution.model.block_sizes:
            guess = block_cdf_factor(0.97, size, t_ref)
            oracle *= block_cdf_factor_adaptive(0.97, size, t_ref, tol=1e-8 * guess)
        assert outage == pytest.approx(oracle, rel=1e-6)


def _fig_distribution():
    model = fit_block_model(build_correlation(10, 0.5), 0.97)
    return GainDistribution(model=model, channel_variance=2.0,
                            rule=gauss_laguerre(32))
