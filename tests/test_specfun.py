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
from fblfas.specfun import Ncx2Family, marcum_q1, ncx2_cdf
from reference import bessel_i0_scaled, ncx2_pdf

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


def _mpmath_poisson_tails(mpmath, n, y):
    """(P(N <= n-1), P(N >= n)) for N ~ Pois(y) at 50 digits.

    The smaller tail is summed term by term from its edge outward, seeded
    with mpmath's own log-gamma, until the terms fall below 1e-45 of the
    sum; the other tail is its complement.
    """
    mpmath.mp.dps = 50
    y = mpmath.mpf(y)
    if y < n:
        term = mpmath.exp(n * mpmath.log(y) - y - mpmath.loggamma(n + 1))
        total, k = term, n
        while term > total * mpmath.mpf(10) ** -45:
            k += 1
            term = term * y / k
            total += term
        return 1 - total, total
    term = mpmath.exp((n - 1) * mpmath.log(y) - y - mpmath.loggamma(n))
    total, k = term, n - 1
    while k > 0 and term > total * mpmath.mpf(10) ** -45:
        term = term * k / y
        k -= 1
        total += term
    return total, 1 - total


class TestPoissonTails:
    # _poisson_tails(n, y) = (P(N <= n-1), P(N >= n)) for N ~ Pois(y), which
    # are scipy's gammaincc(n, y) and gammainc(n, y)

    def test_closed_forms_and_limits(self):
        assert specfun._poisson_tails(1, 0.0) == (1.0, 0.0)
        assert specfun._poisson_tails(7, 0.0) == (1.0, 0.0)
        for y in (1e-300, 0.3, 5.0, 700.0):
            lower, upper = specfun._poisson_tails(1, y)
            assert lower == pytest.approx(math.exp(-y), rel=1e-15)
            assert upper == pytest.approx(-math.expm1(-y), rel=1e-15)
        # far from the mean the small tail underflows and the other is 1
        assert specfun._poisson_tails(5, 1e5) == (0.0, 1.0)
        assert specfun._poisson_tails(100_000, 10.0) == (1.0, 0.0)
        # tiny values keep their relative accuracy: P(N >= 3) ~ y^3 / 6
        assert specfun._poisson_tails(3, 1e-90)[1] == pytest.approx(1e-270 / 6.0, rel=1e-14)

    def test_matches_mpmath_to_the_seed_accuracy(self):
        # The smaller tail is p(k) times a sum of positive terms, and p(k) is
        # exp(-E) with E = ln(1 / value) computed to a few ulps, so its
        # relative error grows like eps E: 3.0 eps E at most was measured
        # over 4,720 values of 1e-290 and up (5.2e-14 at value >= 1e-40),
        # where scipy's gammainc errs by up to 1.5e-11.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(160):
            n = int(math.exp(rng.uniform(0.0, math.log(2e4))))
            if rng.random() < 0.3:
                y = float(rng.uniform(0.0, 2 * n + 40))
            else:
                y = max(0.0, n + float(rng.normal()) * math.sqrt(n) * float(rng.uniform(0.0, 45.0)))
            y = min(y, 2.0 * n + 40.0)
            got = specfun._poisson_tails(n, y)
            for value, want in zip(got, _mpmath_poisson_tails(mpmath, n, y)):
                want = float(want)
                if want >= 1e-290:
                    checked += 1
                    bound = max(1e-13, 4.0 * np.finfo(float).eps * math.log(1.0 / want))
                    assert abs(value - want) <= bound * want, (n, y, value, want)
        assert checked > 250

    def test_matches_scipy_incomplete_gamma(self):
        # 1e-13 on values >= 1e-3 (4.1e-14 measured on this grid). Deeper in
        # the tails scipy's own error sets the bound: on this grid the two
        # differ by up to 2.9e-11, and at such points (n = 9464, y = 13358,
        # value 1.8e-277; n = 80, y = 117, value 1.2e-4 differs by 1.1e-13)
        # 50-digit mpmath sides with _poisson_tails, which the test above
        # holds to 1e-13 down to 1e-40.
        from scipy.special import gammainc, gammaincc

        worst_bulk = worst_tail = 0.0
        for n in (1, 2, 3, 5, 10, 15, 16, 17, 35, 36, 80, 81, 200, 500, 501, 1000,
                  2048, 5000, 9464, 20000):
            spread = np.linspace(-40.0, 40.0, 161) * math.sqrt(n) + n
            ys = np.concatenate([np.linspace(0.0, 2 * n + 40, 201), spread, [n - 1, n, n + 1]])
            for y in ys[(ys >= 0.0) & (ys <= 2 * n + 40)]:
                lower, upper = specfun._poisson_tails(n, float(y))
                for value, want in ((lower, gammaincc(n, y)), (upper, gammainc(n, y))):
                    if want >= 1e-290:
                        rel = abs(value - want) / want
                        if want >= 1e-3:
                            worst_bulk = max(worst_bulk, rel)
                        else:
                            worst_tail = max(worst_tail, rel)
        assert worst_bulk <= 1e-13
        assert worst_tail <= 5e-11


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
            ncx2_cdf(1.0, -2.0)


class TestPoissonWindow:
    def test_array_form_equals_the_scalar_form(self):
        # means from 1e-300 to 1e7, a dense stretch where the window leaves
        # k = 0, and the edges; the split rule passes its columns as arrays
        rng = np.random.default_rng(5)
        means = np.concatenate([10.0 ** rng.uniform(-300.0, 7.0, 20_000),
                                rng.uniform(0.0, 200.0, 5_000), [0.0, 5e-324, 1e7]])
        lo, hi = specfun._poisson_window(means)
        assert lo.dtype == hi.dtype == np.int64
        pairs = [specfun._poisson_window(m) for m in means.tolist()]
        assert all(type(a) is int and type(b) is int for a, b in pairs[:10])
        assert lo.tolist() == [a for a, _ in pairs]
        assert hi.tolist() == [b for _, b in pairs]
        assert lo.min() == 0 and lo.max() > 0
        # a two-dimensional array keeps its shape
        assert specfun._poisson_window(means[:6].reshape(2, 3))[1].shape == (2, 3)


class TestNcx2Family:
    def test_matches_scalar_functions(self):
        lams = np.array([0.0, 0.5, 3.0, 40.0, 300.0])
        fam = Ncx2Family(lams)
        for x in (0.0, 0.7, 5.0, 50.0, 400.0):
            cdf = fam.tails(x)
            pdf = fam.pdf(x)
            assert cdf.shape == lams.shape
            for i, lam in enumerate(lams):
                assert cdf[i] == pytest.approx(ncx2_cdf(x, float(lam)), abs=1e-12)
                assert pdf[i] == pytest.approx(ncx2_pdf(x, float(lam)), rel=1e-12, abs=1e-300)

    def test_log_factorial_table_is_lgamma_and_grows_by_rebinding(self, monkeypatch):
        def lgammas(count):
            return np.array([math.lgamma(k + 1.0) for k in range(count)])

        monkeypatch.setattr(specfun, "_log_factorials", np.empty(0))
        first = specfun._log_factorial_table(64)
        before = specfun._log_factorials
        kept = before.copy()
        small = specfun._log_factorial_table(40)
        assert specfun._log_factorials is before and before.size == 64
        grown = specfun._log_factorial_table(3000)
        assert specfun._log_factorials is not before and specfun._log_factorials.size >= 3000
        assert np.array_equal(before, kept)  # a reader of the old table sees no change
        assert np.array_equal(grown, lgammas(3000))
        assert np.array_equal(first, lgammas(64))
        assert np.array_equal(small, lgammas(40))
        assert not grown.flags.writeable
        # a family wider than the table grows it and keeps its bits
        fam = Ncx2Family(np.array([0.0, 9000.0]))
        assert np.array_equal(fam._lgk, lgammas(fam._kmax + 1))
        # marcum_q1 reads its window from the same table
        lo, hi = specfun._poisson_window(0.5 * 300.0 ** 2)
        marcum_q1(300.0, 290.0)
        assert specfun._log_factorials.size > hi
        assert np.array_equal(specfun._log_factorials[lo:hi + 1], lgammas(hi + 1)[lo:])

    def test_far_marcum_window_leaves_the_table_small(self, monkeypatch):
        # at a = 2000 the window sits near k = 2e6; it is filled on its own,
        # with the table's own lgamma values, so the result keeps its bits
        lo, hi = specfun._poisson_window(0.5 * 2000.0 ** 2)
        assert hi >= specfun._WINDOW_TABLE_LIMIT
        monkeypatch.setattr(specfun, "_log_factorials", np.empty(0))
        value = marcum_q1(2000.0, 2000.5)
        assert 0.1 < value < 0.9
        assert specfun._log_factorials.size < specfun._WINDOW_TABLE_LIMIT
        specfun._log_factorial_table(hi + 1)  # pre-grown: the window is read from it
        monkeypatch.setattr(specfun, "_WINDOW_TABLE_LIMIT", hi + 1)
        assert marcum_q1(2000.0, 2000.5) == value

    def test_log_factorial_table_is_within_four_ulps_of_mpmath(self):
        # 40-digit ln k! at a spread of k up to the largest window the
        # default sweeps tabulate; scipy's gammaln, the former source of the
        # table, is held to the same bound
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        ks = sorted({0, 1, 2, 3, 10, 15, 16, 100, 999, 1000, 4097, 12345, 70000}
                    | set(np.random.default_rng(5).integers(0, 70000, 40).tolist()))
        table = specfun._log_factorial_table(max(ks) + 1)
        for k in ks:
            want = mpmath.loggamma(k + 1)
            ulp = math.ulp(float(want)) if k > 1 else math.ulp(0.0)
            for got in (float(table[k]), float(gammaln(k + 1.0))):
                assert abs(float(mpmath.mpf(got) - want)) <= 4 * ulp, (k, got)

    @pytest.mark.parametrize("rows", [1, 2, 17])
    def test_poisson_table_rounds_as_three_operations(self, rows):
        # the table's exponent is a three-term product, summed in order, so
        # it equals k ln m - m - ln k! taken one operation at a time, for
        # one table, one row, or a stack of per-panel tables padded to a
        # common width, as the split rule builds them
        rng = np.random.default_rng(rows)
        for panels, width in ((None, 300), (5, 120)):
            shape = (rows,) if panels is None else (panels, rows)
            means = rng.uniform(0.0, 2000.0, shape) ** rng.uniform(0.3, 1.0, shape)
            start = rng.integers(0, 1500, 1 if panels is None else panels)
            k = (start[:, None] + np.arange(width)).astype(float)
            if panels is None:
                k = k[0]
            lgk = specfun._log_factorial_table(2000)[k.astype(int)]
            log_means = np.log(means)
            want = np.exp(k[..., None, :] * log_means[..., None] - means[..., None]
                          - lgk[..., None, :])
            assert np.array_equal(specfun._poisson_table(log_means, means, k, lgk), want)

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
