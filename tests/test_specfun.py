"""Special-function accuracy against independently computed references.

Reference values were produced with mpmath at 30 significant digits via
routes that share nothing with the implementation: the ascending Bessel
series, the defining Marcum integral int_b^inf x e^(-(x^2+a^2)/2) I0(ax) dx,
and the Poisson-mixture form of the noncentral chi-square CDF. The two
Marcum routes agree with each other to 18 digits, so the frozen constants
are trustworthy well past the tolerances asserted here.
"""
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln

from fblfas import specfun
from fblfas.errors import NumericError
from fblfas.specfun import (
    Ncx2Family,
    bessel_i0_scaled,
    marcum_q1,
    ncx2_cdf,
    ncx2_pdf,
)

# mpmath: besseli(0, x) * exp(-x), dps=30
I0_SCALED_REFERENCE = {
    0.5: 0.64503527044915006811,
    1.0: 0.4657596075936404365,
    5.0: 0.18354081260932835307,
    14.9: 0.10425387282429125373,
    15.1: 0.10354878120576968607,
    100.0: 0.039944379299096682648,
    700.0: 0.015081295651531357587,
    1.0e4: 0.0039894726746047321064,
}

# mpmath: quadrature of the defining integral, cross-checked against the
# Poisson-mixture series to 18 digits
MARCUM_REFERENCE = {
    (1.0, 1.0): 0.732879803796820218,
    (0.5, 2.0): 0.169140638509467183,
    (3.0, 1.0): 0.989170550178452149,
    (2.0, 2.0): 0.603500960611993349,
    (10.0, 12.0): 0.0253294742979414178,
}

NCX2_REFERENCE = [
    # (x, lam, pdf, cdf)
    (4.0, 2.0, 0.10585604198097175, 0.605703141107668434),
    (1.0, 0.5, 0.26664169121276908, 0.324350703705095479),
    (10.0, 30.0, 0.00331239353518359803, 0.00744920180635532158),
]


class TestBesselI0Scaled:
    def test_zero_is_one(self):
        assert bessel_i0_scaled(0.0) == 1.0

    def test_reference_values(self):
        for x, want in I0_SCALED_REFERENCE.items():
            got = bessel_i0_scaled(x)
            assert got == pytest.approx(want, rel=1e-12), f"x={x}"

    def test_large_x_asymptotic(self):
        # leading term of the Hankel expansion: I0(x) ~ e^x / sqrt(2 pi x)
        assert bessel_i0_scaled(700.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi * 700.0), rel=1e-3
        )

    def test_bounded_and_decreasing(self):
        xs = np.unique(
            np.concatenate([np.linspace(0.0, 60.0, 400), np.geomspace(60.0, 1e4, 100)])
        )
        vals = np.array([bessel_i0_scaled(float(x)) for x in xs])
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_rejects_bad_input(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                bessel_i0_scaled(bad)


class TestMarcumQ1:
    def test_b_zero_is_one(self):
        for a in (0.0, 0.3, 5.0, 40.0, 2000.0):
            assert marcum_q1(a, 0.0) == 1.0

    def test_a_zero_is_rayleigh_tail(self):
        for b in (0.1, 1.0, 3.0, 10.0):
            assert marcum_q1(0.0, b) == pytest.approx(math.exp(-0.5 * b * b), rel=1e-13)

    def test_reference_values(self):
        for (a, b), want in MARCUM_REFERENCE.items():
            assert abs(marcum_q1(a, b) - want) < 1e-10, f"(a,b)=({a},{b})"

    def test_monotone_in_each_argument(self):
        # monotone up to the 1e-10 accuracy floor: where Q1 saturates at 1
        # the series truncation leaves sub-1e-12 noise
        rng = np.random.default_rng(42)
        for _ in range(200):
            a = float(rng.uniform(0.0, 30.0))
            b = float(rng.uniform(0.0, 30.0))
            da = float(rng.uniform(0.01, 1.0))
            assert marcum_q1(a + da, b) >= marcum_q1(a, b) - 1e-10
            assert marcum_q1(a, b + da) <= marcum_q1(a, b) + 1e-10

    def test_extreme_arguments_stay_finite(self):
        # the correlation regime mu^2 -> 1 pushes a, b into the thousands
        for a, b in ((2000.0, 2000.0), (2000.0, 1900.0), (1900.0, 2000.0), (1.0, 1500.0)):
            q = marcum_q1(a, b)
            assert math.isfinite(q)
            assert 0.0 <= q <= 1.0
        assert marcum_q1(2000.0, 1900.0) > 0.5 > marcum_q1(1900.0, 2000.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            marcum_q1(-0.5, 1.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, -0.5)
        with pytest.raises(ValueError):
            marcum_q1(math.nan, 1.0)


class TestNcx2:
    def test_central_case_is_exponential(self):
        for x in (0.1, 1.0, 4.0, 20.0):
            assert ncx2_pdf(x, 0.0) == pytest.approx(0.5 * math.exp(-0.5 * x), rel=1e-13)
            assert ncx2_cdf(x, 0.0) == pytest.approx(1.0 - math.exp(-0.5 * x), rel=1e-13)

    def test_reference_values(self):
        for x, lam, pdf_want, cdf_want in NCX2_REFERENCE:
            assert ncx2_pdf(x, lam) == pytest.approx(pdf_want, rel=1e-12)
            assert ncx2_cdf(x, lam) == pytest.approx(cdf_want, rel=1e-12)

    def test_pdf_normalizes(self):
        total, err = integrate.quad(lambda x: ncx2_pdf(x, 5.0), 0.0, np.inf, limit=200)
        assert abs(total - 1.0) < 1e-8

    def test_pdf_is_cdf_derivative(self):
        h = 1e-5
        for x, lam in ((4.0, 2.0), (1.0, 0.5), (8.0, 12.0)):
            fd = (ncx2_cdf(x + h, lam) - ncx2_cdf(x - h, lam)) / (2.0 * h)
            assert abs(fd - ncx2_pdf(x, lam)) < 1e-6

    def test_closure_with_marcum(self):
        # Q1(a, b) and F(b^2; a^2) partition the probability mass
        rng = np.random.default_rng(7)
        for _ in range(500):
            a = float(rng.uniform(0.0, 40.0))
            b = float(rng.uniform(0.0, 40.0))
            assert abs(marcum_q1(a, b) + ncx2_cdf(b * b, a * a) - 1.0) < 1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ncx2_pdf(-1.0, 2.0)
        with pytest.raises(ValueError):
            ncx2_cdf(1.0, -2.0)


class TestNcx2Family:
    def test_matches_scalar_functions(self):
        lams = np.array([0.0, 0.5, 3.0, 40.0, 300.0])
        fam = Ncx2Family(lams)
        for x in (0.0, 0.7, 5.0, 50.0, 400.0):
            cdf, sf = fam.tails(x)
            pdf = fam.pdf(x)
            for i, lam in enumerate(lams):
                assert cdf[i] == pytest.approx(ncx2_cdf(x, float(lam)), abs=1e-12)
                assert sf[i] == pytest.approx(marcum_q1(math.sqrt(lam), math.sqrt(x)), abs=1e-12)
                assert pdf[i] == pytest.approx(ncx2_pdf(x, float(lam)), rel=1e-12, abs=1e-300)

    def test_tails_sum_to_one(self):
        fam = Ncx2Family(np.geomspace(0.01, 1000.0, 64))
        for x in (0.3, 3.0, 30.0, 300.0):
            cdf, sf = fam.tails(x)
            np.testing.assert_allclose(cdf + sf, 1.0, atol=1e-10)

    def test_log_factorial_table_is_gammaln_and_grows_by_rebinding(self, monkeypatch):
        monkeypatch.setattr(specfun, "_log_factorials", np.empty(0))
        first = specfun._log_factorial_table(64)
        before = specfun._log_factorials
        kept = before.copy()
        small = specfun._log_factorial_table(40)
        assert specfun._log_factorials is before and before.size == 64
        grown = specfun._log_factorial_table(3000)
        assert specfun._log_factorials is not before and specfun._log_factorials.size >= 3000
        assert np.array_equal(before, kept)  # a reader of the old table sees no change
        k = np.arange(3000, dtype=float)
        assert np.array_equal(grown, gammaln(k + 1.0))
        assert np.array_equal(first, gammaln(k[:64] + 1.0))
        assert np.array_equal(small, gammaln(k[:40] + 1.0))
        assert not grown.flags.writeable
        # a family wider than the table grows it and keeps its bits
        fam = Ncx2Family(np.array([0.0, 9000.0]))
        assert np.array_equal(fam._lgk, gammaln(np.arange(fam._kmax + 1.0) + 1.0))

    def test_tabulation_guard(self):
        # a huge family at huge noncentrality would need an absurd Poisson
        # window; that is a configuration error, not something to grind out
        with pytest.raises(NumericError):
            Ncx2Family(np.full(100_000, 4.0e4))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Ncx2Family(np.array([]))
        for bad in (-2.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Ncx2Family(np.array([1.0, bad]))
        fam = Ncx2Family(np.array([1.0]))
        with pytest.raises(ValueError):
            fam.tails(-1.0)
