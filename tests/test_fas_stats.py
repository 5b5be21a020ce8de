"""Distribution of the selected-port gain: quadrature route vs references.

Frozen block-factor constants come from an mpmath oracle (30 digits) that
evaluates the factor integral with the Poisson-mixture noncentral
chi-square CDF; that oracle shares nothing with the code under test. The
adaptive Gauss-Kronrod route reproduces every frozen value to machine
precision, so it doubles as the dense-grid reference for the fixed-order
rule. The fixed-order rule (Gauss-Laguerre where it resolves the bracket,
the split rule elsewhere) stays at 1e-10 or better through mu^2 = 0.99;
the bounds asserted here are measured levels with margin, not wishes.
"""
import math

import numpy as np
import pytest

from fblfas import fas_stats, metrics
from fblfas.channel import BlockModel, build_correlation, fit_block_model
from fblfas.fas_stats import (
    GainDistribution,
    block_cdf_factor,
    block_cdf_factor_adaptive,
    cdf_gfas,
    pdf_gfas,
    quantile,
)
from fblfas.quadrature import gauss_laguerre
from fblfas.specfun import (
    Ncx2Family,
    _log_factorial_table,
    _poisson_tails,
    _poisson_window,
    ncx2_cdf,
)

# mpmath, dps=30, sigma^2 = 2 reference scale
FACTOR_REFERENCE = [
    # (mu2, size, t, value, gl32_tol)
    (0.5, 3, 2.0, 0.3145672365422629, 1e-12),
    (0.81, 3, 5.0, 0.8446439511861357, 1e-12),
    (0.97, 9, 3.0, 0.6672487977962483, 1e-12),
    (0.25, 1, 1.5, 0.5276334472589853, 1e-12),
]


def reference_distribution(mu2=0.97, order=32):
    model = fit_block_model(build_correlation(10, 0.5), mu2)
    return GainDistribution(model=model, channel_variance=2.0,
                            rule=gauss_laguerre(order))


class TestBlockFactor:
    def test_adaptive_matches_oracle(self):
        for mu2, size, t, want, _ in FACTOR_REFERENCE:
            got = block_cdf_factor_adaptive(mu2, size, t)
            assert got == pytest.approx(want, abs=1e-12), (mu2, size, t)

    def test_fixed_order_matches_oracle(self):
        for mu2, size, t, want, tol in FACTOR_REFERENCE:
            got = block_cdf_factor(mu2, size, t)
            assert got == pytest.approx(want, abs=tol), (mu2, size, t)

    def test_fixed_order_error_profile(self):
        # the order-32 rule stays exact as mu^2 -> 1; at strong correlation
        # the gaps measured here (5e-14 to 1.4e-13) sit far inside the
        # oracle's own 1e-10 tolerance, and the budget is ten times that;
        # a Laguerre sum that does not resolve the bracket shows at 1e-3..1e-2
        grid = np.linspace(0.2, 20.0, 50)
        budgets = {0.01: 1e-10, 0.25: 1e-10, 0.81: 1e-9, 0.9409: 1e-9, 0.97: 1e-9,
                   0.99: 1e-9}
        for mu2, budget in budgets.items():
            worst = max(
                abs(block_cdf_factor(mu2, 3, float(t))
                    - block_cdf_factor_adaptive(mu2, 3, float(t)))
                for t in grid
            )
            assert worst <= budget, f"mu2={mu2}: {worst:.3e}"

    def test_order_refinement_stable_at_moderate_correlation(self):
        r64 = gauss_laguerre(64)
        for t in np.linspace(0.2, 20.0, 25):
            a = block_cdf_factor(0.5, 3, float(t))
            b = block_cdf_factor(0.5, 3, float(t), rule=r64)
            assert abs(a - b) <= 1e-8

    def test_singleton_block_is_marginal_cdf(self):
        # a size-1 block cannot select; its factor is the plain exponential
        # CDF of one port regardless of the correlation parameter
        for mu2 in (0.1, 0.5, 0.97):
            for t in (0.3, 1.0, 4.0):
                want = 1.0 - math.exp(-0.5 * t)
                assert block_cdf_factor_adaptive(mu2, 1, t) == pytest.approx(want, abs=1e-9)

    def test_plain_laguerre_kept_at_weak_correlation(self):
        # where the Laguerre nodes resolve the bracket the rule is their sum
        rule = gauss_laguerre(16)
        for mu2, size, t in ((0.25, 2, 0.5), (0.25, 3, 4.0), (0.01, 9, 1.0)):
            x = t / (1.0 - mu2)
            lam_rate = 2.0 * mu2 / (1.0 - mu2)
            bracket = np.array([ncx2_cdf(x, lam_rate * u) ** size for u in rule.nodes])
            want = rule.weights @ bracket
            assert block_cdf_factor(mu2, size, t, rule=rule) == pytest.approx(want, rel=1e-13)

    def test_large_blocks_keep_relative_accuracy_in_the_tail(self):
        # the fall of F2^L moves left and narrows as L grows; deep in the
        # left tail the factor is tiny and only a relative check means
        # anything, so the oracle's tolerance scales with the value
        for mu2, size, t in ((0.97, 498, 0.24), (0.97, 997, 1.0), (0.99, 4997, 0.5),
                             (0.81, 30, 0.05), (0.9409, 9, 0.1)):
            got = block_cdf_factor(mu2, size, t)
            want = block_cdf_factor_adaptive(mu2, size, t, tol=1e-12 * got)
            assert got == pytest.approx(want, rel=1e-9), (mu2, size, t)

    def test_adaptive_resolves_the_layer_at_zero(self):
        # at large size * lam and small t the factor's mass sits in a layer
        # at u = 0 narrower than one folded Gauss-Kronrod panel's first node;
        # a single panel reported a converged 1.30e-137 here. Reference:
        # scipy quad at relative tolerance 1e-12, cut at the layer's scale.
        want = 6.969377403597174e-121
        got = block_cdf_factor_adaptive(0.97, 497, 0.0526, tol=1e-12 * want)
        assert got == pytest.approx(want, rel=1e-10)
        assert block_cdf_factor(0.97, 497, 0.0526) == pytest.approx(got, rel=1e-10)

    def test_block_factor_families_keep_the_former_kernel_bits(self):
        # the former kernel, written out: a fresh temporary per operation for
        # the table and the pmf row, the CDF from a whole reverse cumulative
        # sum and a second row for the density, reading ln k! from the shared
        # table and the mass beyond the window from _poisson_tails as the
        # family does. On the Laguerre nodes' family at mu2 = 0.97, reused
        # across abscissas, and on families of the split rule's nodes there
        # (kmax from about 40 to about 1,300) the family's CDF and its
        # density, read from the row tails kept, equal it bit for bit: the
        # table's matrix product rounds as the three operations do.
        def former(lams, x):
            means = 0.5 * lams
            k = np.arange(_poisson_window(float(means.max()))[1] + 1, dtype=float)
            lgk = _log_factorial_table(k.size).copy()
            mix = np.exp(k[None, :] * np.log(np.maximum(means, 1e-300))[:, None]
                         - means[:, None] - lgk[None, :])
            y = 0.5 * x
            pmf = np.exp(k * math.log(max(y, 1e-300)) - y - lgk)
            rev = np.cumsum(pmf[::-1])[::-1]
            _, beyond = _poisson_tails(k.size, 0.5 * x)
            upper = np.empty_like(pmf)
            upper[:-1] = rev[1:] + beyond
            upper[-1] = beyond
            return np.clip(mix @ upper, 0.0, 1.0), 0.5 * (mix @ pmf)

        lam_rate = 2.0 * 0.97 / 0.03
        laguerre = Ncx2Family(lam_rate * gauss_laguerre(32).nodes)
        cases = [(x, laguerre) for x in (5.0, 1500.0, 5.0)]
        for x in np.geomspace(5.0, 1500.0, 7):
            for size in (2, 5, 31, 120, 497):
                _, _, s, _, _ = fas_stats._split_plan(np.array([x]), lam_rate, size, 32)
                cases.append((float(x), Ncx2Family((s * s).ravel())))
        for x, family in cases:
            cdf, pdf = former(family.lams, x)
            assert np.array_equal(family.tails(x), cdf), x
            assert np.array_equal(family.pdf(x), pdf), (x, family._kmax)
        kmaxes = [family._kmax for _, family in cases[3:]]
        assert min(kmaxes) <= 40 and max(kmaxes) > 1200

    def test_singleton_factor_in_closed_form(self):
        for mu2 in (0.1, 0.97):
            for t in (1e-3, 1.0, 30.0):
                assert block_cdf_factor(mu2, 1, t) == pytest.approx(
                    -math.expm1(-0.5 * t), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            block_cdf_factor(1.0, 3, 1.0)
        with pytest.raises(ValueError):
            block_cdf_factor(0.5, 0, 1.0)
        with pytest.raises(ValueError):
            block_cdf_factor(0.5, 3, math.nan)


class TestCdfGfas:
    def test_zero_and_limits(self):
        dist = reference_distribution()
        assert cdf_gfas(dist, 0.0) == 0.0
        assert cdf_gfas(dist, 1e6) == pytest.approx(1.0, abs=1e-9)

    def test_monotone(self):
        # up to 1e-10 slack: the quadrature leaves ~1e-12 noise once the
        # CDF saturates at 1
        dist = reference_distribution()
        grid = np.linspace(0.0, 60.0, 200)
        vals = [cdf_gfas(dist, float(t)) for t in grid]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_factorizes_over_blocks(self):
        model = BlockModel(block_sizes=(3, 2), mu2=0.6)
        dist = GainDistribution(model=model, channel_variance=2.0,
                                rule=gauss_laguerre(32))
        for t in (0.5, 2.0, 7.0):
            want = block_cdf_factor(0.6, 3, t) * block_cdf_factor(0.6, 2, t)
            assert cdf_gfas(dist, t) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("order, bound", [(8, 5.5e-9), (16, 3.0e-10)])
    def test_low_orders_match_order_128(self, order, bound):
        # the split rule's panels have _PANEL_NODES nodes whatever the
        # order, which sets only the Laguerre rule and where it is kept.
        # Over mu2 0.1-0.97, N = 10 and 200 and t 0.01-60 the CDF errs by up
        # to 5.5e-10 relative at order 8 and 3.0e-11 at order 16, at weak
        # correlation, where the Laguerre rule is kept (bounds ten times
        # that); panels of order // 2 nodes erred by 1.2e-1 and 1.5e-5
        grid = [float(t) for t in np.geomspace(0.01, 60.0, 40)]
        worst = 0.0
        for ports in (10, 200):
            corr = build_correlation(ports, 0.5)
            for mu2 in (0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.97):
                model = fit_block_model(corr, mu2)
                low = GainDistribution(model=model, rule=gauss_laguerre(order))
                high = GainDistribution(model=model, rule=gauss_laguerre(128))
                for t in grid:
                    want = cdf_gfas(high, t)
                    gap = abs(cdf_gfas(low, t) - want)
                    worst = max(worst, gap / want if want else gap)  # some underflow to 0
        assert worst <= bound

    def test_scale_consistency(self):
        # sigma^2-general evaluation equals the sigma^2 = 2 reference at 2t/sigma^2
        model = fit_block_model(build_correlation(10, 0.5), 0.97)
        ref = GainDistribution(model=model, channel_variance=2.0,
                               rule=gauss_laguerre(32))
        gen = GainDistribution(model=model, channel_variance=5.0,
                               rule=gauss_laguerre(32))
        for t in (0.5, 2.0, 10.0):
            assert cdf_gfas(gen, t) == pytest.approx(cdf_gfas(ref, 2.0 * t / 5.0), rel=1e-13)
            assert pdf_gfas(gen, t) == pytest.approx(
                (2.0 / 5.0) * pdf_gfas(ref, 2.0 * t / 5.0), rel=1e-13)

    def test_iid_closed_form(self):
        # one block holding all ports at vanishing correlation: the max of
        # N independent Exp(2) gains
        for ports in (1, 5, 10):
            model = BlockModel(block_sizes=(ports,), mu2=1e-9)
            dist = GainDistribution(model=model, channel_variance=2.0,
                                    rule=gauss_laguerre(32))
            for t in (0.5, 1.0, 2.0, 5.0):
                base = 1.0 - math.exp(-0.5 * t)
                want_cdf = base**ports
                want_pdf = ports * base ** (ports - 1) * 0.5 * math.exp(-0.5 * t)
                assert abs(cdf_gfas(dist, t) - want_cdf) < 1e-6
                assert abs(pdf_gfas(dist, t) - want_pdf) < 1e-6

    def test_rejects_bad_input(self):
        dist = reference_distribution()
        with pytest.raises(ValueError):
            cdf_gfas(dist, -1.0)
        with pytest.raises(ValueError):
            cdf_gfas(dist, math.nan)
        with pytest.raises(ValueError):
            pdf_gfas(dist, math.inf)
        with pytest.raises(ValueError):
            GainDistribution(model=dist.model, channel_variance=0.0,
                             rule=gauss_laguerre(32))

    def test_highest_order_at_strongest_correlation(self):
        # the plain order-256 Laguerre family at mu^2 = 0.99 is too large to
        # tabulate; the split rule never builds it there
        d32 = reference_distribution(mu2=0.99, order=32)
        d256 = reference_distribution(mu2=0.99, order=256)
        for t in (0.5, 3.0, 12.0):
            assert cdf_gfas(d256, t) == pytest.approx(cdf_gfas(d32, t), abs=1e-12)
            assert pdf_gfas(d256, t) == pytest.approx(pdf_gfas(d32, t), rel=1e-9)

    def test_infinite_gain_saturates(self):
        assert cdf_gfas(reference_distribution(), math.inf) == 1.0

    def test_abscissa_that_underflows_to_zero(self):
        # at sigma^2 = 100 the chi-square abscissa x of t = 1e-322 is the
        # smallest subnormal, and x / 2 rounds to 0: F2(x; 0) = 0 there, which
        # divided by zero in the split rule's slope bound (ZeroDivisionError
        # from both functions) while 2e-322 already returned 0
        model = fit_block_model(build_correlation(50, 1.0), 0.5)
        for t in (5e-324, 1e-322, 2e-322, 1e-300):
            dist = GainDistribution(model, channel_variance=100.0)
            assert cdf_gfas(dist, t) == 0.0
            assert pdf_gfas(dist, t) == 0.0


class TestNormalQuantile:
    # the split rule places its panels with the standard normal quantile
    def test_matches_scipy_ndtri(self):
        # 8.3e-16 at most over these points
        from scipy.special import ndtri

        rng = np.random.default_rng(2)
        ps = np.concatenate([np.geomspace(1e-300, 0.5, 600), 1.0 - np.geomspace(1e-16, 0.5, 200),
                             rng.uniform(0.0, 1.0, 400)])
        for p in ps:
            got, want = fas_stats._normal_quantile(float(p)), float(ndtri(p))
            assert abs(got - want) <= 1e-15 * abs(want), p

    def test_zero_maps_to_minus_infinity(self):
        assert fas_stats._normal_quantile(0.0) == -math.inf


class TestPdfGfas:
    def test_nonnegative(self):
        dist = reference_distribution()
        for t in np.linspace(0.01, 60.0, 100):
            assert pdf_gfas(dist, float(t)) >= 0.0

    def test_derivative_of_cdf(self):
        # grid spans the distribution bulk; in the saturated tail the CDF
        # difference cancels to the quadrature noise floor and the finite
        # difference itself becomes meaningless
        dist = reference_distribution()
        grid = np.linspace(quantile(dist, 0.02), quantile(dist, 0.98), 20)
        h = 1e-4
        for t in grid:
            t = float(t)
            fd = (cdf_gfas(dist, t + h) - cdf_gfas(dist, t - h)) / (2.0 * h)
            pdf = pdf_gfas(dist, t)
            assert abs(fd - pdf) <= 1e-3 * max(pdf, 1e-12), f"t={t}"

    @staticmethod
    def panel_gaps(mu2, order):
        # worst relative gap, over the panels of two per e-fold holding more
        # than 1e-6 of the mass, between a panel's CDF difference and the
        # integral of the density on its 24 Gauss-Legendre nodes in ln t
        model = fit_block_model(build_correlation(33, 0.96), mu2)
        dist = GainDistribution(model=model, channel_variance=2.0, rule=gauss_laguerre(order))
        per_efold = 2
        rule = fas_stats._panel_rule(metrics._PANEL_ORDER)
        offsets = 0.5 + 0.5 * rule.nodes
        weights = (0.5 / per_efold) * rule.weights
        gaps = []
        for j in range(-40, 12):
            mass = (cdf_gfas(dist, 2.0 * math.exp((j + 1) / per_efold))
                    - cdf_gfas(dist, 2.0 * math.exp(j / per_efold)))
            if mass > 1e-6:
                nodes = 2.0 * np.exp((j + offsets) / per_efold)
                ft = [pdf_gfas(dist, float(t)) * t for t in nodes]
                gaps.append(abs(float(np.dot(weights, ft)) - mass) / mass)
        assert len(gaps) >= 7
        return max(gaps)

    @pytest.mark.parametrize("mu2, bound", [(0.453, 1.3e-8), (0.97, 4.1e-10)])
    def test_panel_integrals_match_cdf_differences(self, mu2, bound):
        # the error-bound average (metrics._clamped_average) takes the CDF
        # at panel edges and the density on 24 Gauss-Legendre nodes in ln t
        # between them, so the two must agree panel by panel. At N = 33,
        # W = 0.96 and M = 25 (two panels per e-fold) the worst relative
        # gap over panels holding more than 1e-6 of the mass measured
        # 1.30e-9 at mu^2 = 0.453 and 4.1e-11 at 0.97, both on the upper
        # tail where F(t_(j+1)) - F(t_j) cancels near 1, and the same at
        # order 64; the bounds are ten times that
        assert self.panel_gaps(mu2, 32) <= bound

    @pytest.mark.parametrize("order", [8, 16])
    def test_low_orders_keep_panel_integrals_consistent(self, order):
        # the split rule's panels have _PANEL_NODES nodes at every order, so
        # the gap at orders 8 and 16 is order 32's, 1.30e-9 at mu^2 = 0.453
        # (the bound is ten times that); with panels of order // 2 nodes it
        # measured 1.0 at order 8 and 5.7e-3 at order 16
        assert self.panel_gaps(0.453, order) <= 1.3e-8

    def test_normalizes(self):
        from fblfas.quadrature import integrate_adaptive

        dist = reference_distribution()
        hi = quantile(dist, 1.0 - 1e-10)
        res = integrate_adaptive(lambda x: np.array([pdf_gfas(dist, float(v)) for v in np.atleast_1d(x)]),
                                 0.0, hi, tol=1e-9)
        assert abs(res.value - 1.0) < 1e-4

    def test_order_refinement_gap_at_high_correlation(self):
        # order 32 against order 256 at the 10-port, W=0.5, mu^2=0.97 setup:
        # measured sup-CDF 2.2e-14 and pdf L1 1.3e-14; the bounds allow
        # about fifty times that. A Laguerre sum that does not resolve the
        # bracket shows here as sup-CDF 0.012 and pdf L1 0.19
        d32 = reference_distribution(order=32)
        d256 = reference_distribution(order=256)
        grid = np.linspace(0.05, 40.0, 200)
        sup = max(abs(cdf_gfas(d32, float(t)) - cdf_gfas(d256, float(t))) for t in grid)
        assert sup <= 1e-12
        width = float(grid[1] - grid[0])
        l1 = sum(abs(pdf_gfas(d32, float(t)) - pdf_gfas(d256, float(t))) for t in grid) * width
        assert l1 <= 1e-12


class TestQuantile:
    def test_round_trip(self):
        dist = reference_distribution()
        for p in (0.05, 0.3, 0.5, 0.9, 0.999):
            t = quantile(dist, p)
            assert cdf_gfas(dist, t) == pytest.approx(p, abs=1e-8)

    def test_monotone_in_p(self):
        dist = reference_distribution()
        qs = [quantile(dist, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_zero_probability_maps_to_origin(self):
        dist = reference_distribution()
        assert quantile(dist, 0.0) == 0.0

    def test_rejects_bad_probability(self):
        dist = reference_distribution()
        for bad in (-0.1, 1.0, 1.5, math.nan):
            with pytest.raises(ValueError):
                quantile(dist, bad)


class TestMemo:
    """Each GainDistribution remembers one (CDF, density) pair per argument
    that cdf_gfas or pdf_gfas evaluates; a remembered value must be the bits
    a fresh instance computes."""

    GRID = [float(t) for t in np.geomspace(0.01, 40.0, 25)]

    @staticmethod
    def fresh(dist):
        return GainDistribution(model=dist.model, channel_variance=dist.channel_variance,
                                rule=dist.rule)

    def test_grid_spans_both_latent_rules(self):
        # mu^2 = 0.1 keeps the plain Laguerre rule, mu^2 = 0.97 splits
        for mu2, split in ((0.1, False), (0.97, True)):
            dist = reference_distribution(mu2=mu2)
            sizes = [size for size, _ in dist._size_counts if size > 1]
            x = np.array(self.GRID) * dist._xscale
            plans = [fas_stats._split_plan(x, dist._lam_rate, size, 32)[0] for size in sizes]
            assert any((plan == split).any() for plan in plans), mu2

    @pytest.mark.parametrize("mu2", [0.1, 0.97])
    @pytest.mark.parametrize("pdf_first", [False, True])
    def test_remembered_values_are_bit_equal_to_fresh_ones(self, mu2, pdf_first):
        dist = reference_distribution(mu2=mu2)
        order = (pdf_gfas, cdf_gfas) if pdf_first else (cdf_gfas, pdf_gfas)
        for _ in range(2):  # the second round reads only the memo
            for t in self.GRID:
                for fn in order:
                    assert fn(dist, t) == fn(self.fresh(dist), t), (fn.__name__, t)
            assert quantile(dist, 0.9) == quantile(self.fresh(dist), 0.9)
        assert set(self.GRID) <= set(dist._memo)
        for t in self.GRID:
            assert dist._memo[t] == (cdf_gfas(self.fresh(dist), t),
                                     pdf_gfas(self.fresh(dist), t))

    @pytest.mark.parametrize("mu2", [0.1, 0.97])
    @pytest.mark.parametrize("first, second", [(cdf_gfas, pdf_gfas), (pdf_gfas, cdf_gfas)])
    def test_one_evaluation_gives_both_values(self, monkeypatch, mu2, first, second):
        # the block factors run once per abscissa, whichever value is asked
        # for first; the other is read from the pair it left in the memo
        dist = reference_distribution(mu2=mu2)
        abscissas = []
        block_factors = fas_stats._block_factors

        def counted(x, *rest, **kwargs):
            abscissas.extend(x.tolist())
            return block_factors(x, *rest, **kwargs)

        monkeypatch.setattr(fas_stats, "_block_factors", counted)
        for t in self.GRID:
            first(dist, t)
            assert len(abscissas) == 1
            second(dist, t)
            assert len(abscissas) == 1, (first.__name__, t)
            abscissas.clear()

    def test_cap_is_respected(self, monkeypatch):
        monkeypatch.setattr(fas_stats, "_MEMO_ENTRIES", 4)
        dist = reference_distribution()
        for i, t in enumerate(self.GRID[:10]):
            order = (pdf_gfas, cdf_gfas) if i % 2 else (cdf_gfas, pdf_gfas)
            for fn in order:
                assert fn(dist, t) == fn(self.fresh(dist), t)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            assert quantile(dist, p) == quantile(self.fresh(dist), p)
        assert list(dist._memo) == self.GRID[:4]


def per_abscissa_factors(x, lam_rate, size):
    """G_size(x) and its slope by the split rule evaluated alone on an
    Ncx2Family of the plan's nodes, tabulated from k = 0: the per-abscissa
    path the array kernel replaced."""
    split, base, s, weights, first = fas_stats._split_plan(np.array([x]), lam_rate, size, 32)
    assert split[0]
    if first[1] == first[0]:
        return float(base[0]), 0.0
    family = Ncx2Family((s * s).ravel())
    cdfs, dens = family.tails(x), family.pdf(x)
    powm1 = cdfs ** (size - 1)
    weights = weights.ravel()
    return (min(float(base[0]) + float(np.dot(weights, powm1 * cdfs)), 1.0),
            size * float(np.dot(weights, powm1 * dens)))


class TestSplitKernel:
    """The split rule's array kernel (fas_stats._split_plan, _split_factors)."""

    @pytest.mark.parametrize("mu2", [0.5, 0.97])
    def test_values_do_not_depend_on_the_batch(self, mu2):
        # every (CDF, density) pair is a pure function of (distribution, t):
        # the same bits alone, inside an error-bound panel of the shared
        # grid, inside dist's default grid, and with either batch reversed
        model = fit_block_model(build_correlation(50, 1.0), mu2)

        def fresh():
            return GainDistribution(model=model, channel_variance=2.0)

        rule = fas_stats._panel_rule(metrics._PANEL_ORDER)
        panel = [float(t) for t in 2.0 * np.exp((-3 + 0.5 + 0.5 * rule.nodes) / 2)]
        grid = [float(t) for t in np.linspace(0.1, 40.0, 200)]
        batches = [panel, panel[::-1], grid, grid[::-1], panel + grid]
        for t in panel[::5] + grid[::40]:
            alone = (cdf_gfas(fresh(), t), pdf_gfas(fresh(), t))
            for batch in batches:
                if t in batch:
                    cdf, pdf = fas_stats._evaluate(fresh(), batch)
                    i = batch.index(t)
                    assert (cdf[i], pdf[i]) == alone, (t, len(batch))

    def test_agrees_with_the_per_abscissa_families(self):
        # mu2 0.1-0.99, block sizes 2-4999 and t from the deep left tail
        # (factors below 1e-300 and underflowing to 0) to the upper tail:
        # the values measured equal to the per-abscissa path's bit for bit
        # (pinned within 1e-15), and the slopes, whose sums run over each
        # panel's band and not from k = 0, within 9.5e-14 relative (pinned
        # at 1e-12)
        for mu2 in (0.1, 0.5, 0.9, 0.97, 0.99):
            lam_rate = 2.0 * mu2 / (1.0 - mu2)
            x = np.geomspace(1e-3, 100.0, 30) / (1.0 - mu2)
            for size in (2, 9, 50, 998, 4999):
                split = fas_stats._split_plan(x, lam_rate, size, 32)[0]
                rule = gauss_laguerre(32)
                G, D = fas_stats._block_factors(x, lam_rate, [size], rule,
                                                lambda: Ncx2Family(lam_rate * rule.nodes))
                for i in np.flatnonzero(split):
                    value, slope = per_abscissa_factors(float(x[i]), lam_rate, size)
                    assert G[0, i] == pytest.approx(value, rel=1e-15, abs=0.0), (mu2, size, x[i])
                    assert D[0, i] == pytest.approx(slope, rel=1e-12, abs=0.0), (mu2, size, x[i])

    def test_agrees_with_the_adaptive_oracle(self):
        # measured within 2.7e-11 relative (at mu2 = 0.99, L = 4999)
        for mu2, size, t in ((0.5, 2, 0.3), (0.9, 9, 2.0), (0.97, 50, 0.2), (0.99, 4999, 0.5),
                             (0.97, 9, 30.0)):
            got = block_cdf_factor(mu2, size, t)
            want = block_cdf_factor_adaptive(mu2, size, t, tol=1e-12 * got)
            assert got == pytest.approx(want, rel=3e-10), (mu2, size, t)

    def test_mixed_batch_takes_each_blocks_own_rule(self):
        # one batch holding an abscissa whose x / 2 underflows to 0, ones
        # where the size-3 block keeps the plain Laguerre sum while the
        # size-9 block splits, and one where the size-9 plan has no panel
        # at all (s_hi <= s_lo: the factor is its closed-form part);
        # size-1 blocks are the exponential marginal at every abscissa
        mu2 = 0.5
        lam_rate = 2.0 * mu2 / (1.0 - mu2)
        rule = gauss_laguerre(32)
        family = Ncx2Family(lam_rate * rule.nodes)
        x = np.array([5e-324, 0.01, 2.0, 40.0, 900.0])
        split3 = fas_stats._split_plan(x[1:], lam_rate, 3, 32)[0]
        split9, base9, _, _, first9 = fas_stats._split_plan(x[1:], lam_rate, 9, 32)
        assert list(split3) == [True, True, False, False] and split9.all()
        assert np.diff(first9).tolist()[-2:] == [4, 0]
        G, D = fas_stats._block_factors(x, lam_rate, [1, 3, 9], rule, lambda: family)
        for i, v in enumerate(x.tolist()):
            assert G[0, i] == -math.expm1(-v / (lam_rate + 2.0))
            assert D[0, i] == math.exp(-v / (lam_rate + 2.0)) / (lam_rate + 2.0)
        assert not G[1:, 0].any() and not D[1:, 0].any()
        for i in (1, 2):
            value, slope = per_abscissa_factors(float(x[i]), lam_rate, 3)
            assert G[1, i] == pytest.approx(value, rel=1e-15, abs=0.0)
            assert D[1, i] == pytest.approx(slope, rel=1e-12, abs=0.0)
        for i in (3, 4):
            cdfs, dens = family.tails(float(x[i])), family.pdf(float(x[i]))
            assert G[1, i] == min(float(np.dot(rule.weights, cdfs ** 3)), 1.0)
            assert D[1, i] == 3 * float(np.dot(rule.weights, cdfs ** 2 * dens))
        for i in (1, 2, 3):
            value, slope = per_abscissa_factors(float(x[i]), lam_rate, 9)
            assert G[2, i] == pytest.approx(value, rel=1e-15, abs=0.0)
            assert D[2, i] == pytest.approx(slope, rel=1e-12, abs=0.0)
        assert G[2, 4] == base9[3] and D[2, 4] == 0.0
