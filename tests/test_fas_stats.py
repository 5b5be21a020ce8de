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
from scipy.special import gammainc, gammaln

from fblfas import fas_stats
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
from fblfas.specfun import Ncx2Family, _poisson_window, ncx2_cdf

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
        # the table and the pmf row, both tails from whole cumulative sums and
        # a second row for the density. On the families the block factors
        # build at mu2 = 0.97 (the split rule's, with kmax from about 40 to
        # about 1,300, and the Laguerre nodes', reused across abscissas) the
        # family's tails and its density, read from the row tails kept,
        # equal it bit for bit.
        def former(lams, x):
            means = 0.5 * lams
            k = np.arange(_poisson_window(float(means.max()))[1] + 1, dtype=float)
            lgk = gammaln(k + 1.0)
            mix = np.exp(k[None, :] * np.log(np.maximum(means, 1e-300))[:, None]
                         - means[:, None] - lgk[None, :])
            y = 0.5 * x
            pmf = np.exp(k * math.log(max(y, 1e-300)) - y - lgk)
            rev = np.cumsum(pmf[::-1])[::-1]
            beyond = float(gammainc(k[-1] + 1.0, 0.5 * x))
            upper = np.empty_like(pmf)
            upper[:-1] = rev[1:] + beyond
            upper[-1] = beyond
            lower = np.minimum(np.cumsum(pmf), 1.0)
            return (np.clip(mix @ upper, 0.0, 1.0), np.clip(mix @ lower, 0.0, 1.0),
                    0.5 * (mix @ pmf))

        lam_rate = 2.0 * 0.97 / 0.03
        laguerre = Ncx2Family(lam_rate * gauss_laguerre(32).nodes)
        cases = [(x, laguerre) for x in (5.0, 1500.0, 5.0)]
        for x in np.geomspace(5.0, 1500.0, 7):
            for size in (2, 5, 31, 120, 497):
                _, lams, _ = fas_stats._latent_split(float(x), lam_rate, size, 32)
                cases.append((float(x), Ncx2Family(lams)))
        for x, family in cases:
            cdf, sf, pdf = former(family.lams, x)
            got_cdf, got_sf = family.tails(x)
            assert np.array_equal(got_cdf, cdf) and np.array_equal(got_sf, sf), x
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
        model = BlockModel(block_count=2, block_sizes=(3, 2), mu2=0.6)
        dist = GainDistribution(model=model, channel_variance=2.0,
                                rule=gauss_laguerre(32))
        for t in (0.5, 2.0, 7.0):
            want = block_cdf_factor(0.6, 3, t) * block_cdf_factor(0.6, 2, t)
            assert cdf_gfas(dist, t) == pytest.approx(want, rel=1e-12)

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
            model = BlockModel(block_count=1, block_sizes=(ports,), mu2=1e-9)
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
        quantile(dist, 0.5)  # validation comes before the memo
        for bad in (-0.1, 1.0, 1.5, math.nan):
            with pytest.raises(ValueError):
                quantile(dist, bad)
        assert list(dist._memo[2]) == [0.5]


class TestMemo:
    """Each GainDistribution remembers what cdf_gfas, pdf_gfas and quantile
    return; a remembered value must be the bits a fresh instance computes."""

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
            plans = [fas_stats._latent_split(t * dist._xscale, dist._lam_rate, size, 32)
                     for t in self.GRID for size in sizes]
            assert any((plan is not None) == split for plan in plans), mu2

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
        cdfs, pdfs, quantiles = dist._memo
        assert set(self.GRID) <= set(cdfs) and set(pdfs) == set(self.GRID)
        assert list(quantiles) == [0.9]

    def test_cap_is_respected(self, monkeypatch):
        monkeypatch.setattr(fas_stats, "_MEMO_ENTRIES", 4)
        dist = reference_distribution()
        for t in self.GRID[:10]:
            assert pdf_gfas(dist, t) == pdf_gfas(self.fresh(dist), t)
            assert cdf_gfas(dist, t) == cdf_gfas(self.fresh(dist), t)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            assert quantile(dist, p) == quantile(self.fresh(dist), p)
        assert [len(memo) for memo in dist._memo] == [4, 4, 4]
