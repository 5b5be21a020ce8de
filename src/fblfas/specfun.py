"""Special functions for noncentral chi-square tail work.

Everything that feeds the gain distribution runs through here: the two
tails of a Poisson count, which are the regularized incomplete gamma
functions of integer order, the first-order Marcum Q function, the
distribution function of the 2-degree-of-freedom noncentral chi-square
law, and Ncx2Family, which gives the distribution function and density of
many such laws at one abscissa from shared Poisson tables. Its tables and
those of the split rule in fas_stats are formed by _poisson_table;
marcum_q1, the path of the adaptive oracle, forms its own. The
correlation regimes of interest push the noncentrality to a few tens of
thousands, so all probabilities are assembled from sums of positive terms
with the seeds of those sums carried in log space; nothing in this module
exponentiates a large positive number. It needs numpy and the standard
library only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError

__all__ = [
    "marcum_q1",
    "ncx2_cdf",
    "Ncx2Family",
]

# ============================================================================
# Poisson tails: regularized incomplete gamma functions of integer order
# ============================================================================

# For N ~ Pois(y) and an integer n >= 1, P(N >= n) = P(n, y) and
# P(N <= n - 1) = Q(n, y), the regularized lower and upper incomplete gamma
# functions. The smaller tail is a sum of positive terms seeded at one pmf
# value; the seed is taken in Loader's saddle-point form (C. Loader, "Fast
# and Accurate Computation of Binomial Probabilities", 2000),
#
#     p(k; y) = exp(-stirlerr(k) - bd0(k, y)) / sqrt(2 pi k),
#
# because the naive exponent k ln y - y - ln k! cancels terms of size k ln y
# down to the small deviance bd0(k, y) = k ln(k / y) + y - k.

# stirlerr(k) = ln k! - (k + 1/2) ln k + k - ln sqrt(2 pi) for k = 1 .. 15,
# from 40-digit mpmath; index 0 is unused (p(0; y) = e^(-y)).
_STIRLERR = (
    0.0,
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
# Coefficients of the Stirling series 1/(12k) - 1/(360k^3) + ... used above
# the table.
_S0, _S1, _S2, _S3, _S4 = 1.0 / 12, 1.0 / 360, 1.0 / 1260, 1.0 / 1680, 1.0 / 1188
# The smaller tail's series is cut where its term falls below e^(-40) of
# the first, past the sum's round-off.
_SERIES_LOG_CUT = 40.0
# An upper-tail series of up to this many terms is summed in a Python loop,
# a longer one in numpy, whose fixed cost per call is about that of this
# many loop steps. (Most of the block factors' tails need 10 to 60 terms.)
_LOOP_TERMS = 48


def _stirlerr(k: int) -> float:
    if k < len(_STIRLERR):
        return _STIRLERR[k]
    kk = float(k) * k
    if k > 500:
        return (_S0 - _S1 / kk) / k
    if k > 80:
        return (_S0 - (_S1 - _S2 / kk) / kk) / k
    if k > 35:
        return (_S0 - (_S1 - (_S2 - _S3 / kk) / kk) / kk) / k
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / k


def _bd0(k: int, y: float) -> float:
    """k ln(k / y) + y - k for k, y > 0, to a few ulps.

    Where |k - y| < (k + y) / 2 it is the series (k - y) v + 2k sum_j
    v^(2j+1) / (2j + 1), v = (k - y) / (k + y), whose leading term carries
    it; Loader switches at a tenth, where the direct form still cancels
    tenfold.
    """
    if abs(k - y) < 0.5 * (k + y):
        v = (k - y) / (k + y)
        total = (k - y) * v
        term = 2.0 * k * v
        v *= v
        j = 1
        while True:
            term *= v
            nxt = total + term / (2 * j + 1)
            if nxt == total:
                return total
            total = nxt
            j += 1
    return k * math.log(k / y) + y - k


def _poisson_pmf(k: int, y: float) -> float:
    if k == 0:
        return math.exp(-y)
    return math.exp(-_stirlerr(k) - _bd0(k, y)) / math.sqrt(2.0 * math.pi * k)


def _poisson_tails(n: int, y: float) -> tuple:
    """(P(N <= n - 1), P(N >= n)) for N ~ Pois(y), integer n >= 1, y >= 0.

    These are Q(n, y) and P(n, y). For y < n the upper tail is
    p(n) (1 + y/(n+1) + y^2/((n+1)(n+2)) + ...), otherwise the lower tail is
    p(n-1) (1 + (n-1)/y + (n-1)(n-2)/y^2 + ...); the other tail is the
    complement, which is then at least about 1/2. Term j of
    either series is at most exp(-j |ln(n / y)|) and at most
    exp(-j^2 / (2 (n + j))), so its length is fixed before it is summed.
    Against 50-digit mpmath the smaller tail errs by at most about
    3 eps ln(1 / value) relative.
    """
    if y == 0.0:
        return 1.0, 0.0
    cut = _SERIES_LOG_CUT
    if y < n:
        seed = _poisson_pmf(n, y)
        if seed == 0.0:
            return 1.0, 0.0
        m = math.ceil(min(cut / math.log(n / y), cut + math.sqrt(cut * cut + 2.0 * cut * n)))
        if m > _LOOP_TERMS:
            series = 1.0 + float((y / np.arange(n + 1.0, n + m + 1.0)).cumprod().sum())
        else:
            series = term = 1.0
            for k in range(n + 1, n + m + 1):
                term *= y / k
                series += term
        upper = seed * series
        return 1.0 - upper, upper
    seed = _poisson_pmf(n - 1, y)
    if seed == 0.0:
        return 0.0, 1.0
    by_ratio = cut / math.log(y / n) if y > n else math.inf
    m = min(n - 1, math.ceil(min(by_ratio, math.sqrt(2.0 * cut * n))))
    lower = seed * (1.0 + float((np.arange(n - 1.0, n - 1.0 - m, -1.0) / y).cumprod().sum()))
    return lower, 1.0 - lower


# ============================================================================
# Marcum Q via the Poisson mixture of the noncentral chi-square law
# ============================================================================

# Q1(a, b) is the survival function at b^2 of a noncentral chi-square with
# 2 degrees of freedom and noncentrality a^2. Writing that law as a Poisson
# mixture of central chi-squares gives, for independent Poisson counts
# N_w ~ Pois(a^2/2) and N_y ~ Pois(b^2/2),
#
#     Q1(a, b) = P(N_y <= N_w) = sum_k P(N_w = k) * P(N_y <= k).
#
# The sum is truncated to a window around the bulk of N_w; the Poisson CDF
# of N_y at the window edge is seeded from _poisson_tails and then advanced
# by the pmf recurrence. The neglected mass is bounded by the Poisson tail
# beyond ~9.5 standard deviations (< 1e-19), and every retained term is
# positive, so tiny results keep their relative accuracy and huge arguments
# merely underflow to 0 instead of overflowing.

_WINDOW_SIGMAS = 9.5
_WINDOW_PAD = 26


def _poisson_window(mean):
    """Window (lo, hi) of counts around a Poisson mean: two ints, or for an
    array of means two integer arrays, with the same integers entry by entry
    (both forms round the same IEEE operations). Scalars keep math's
    functions, a tenth of the cost of numpy's on one value."""
    if isinstance(mean, np.ndarray):
        half = _WINDOW_SIGMAS * np.sqrt(mean + 1.0) + _WINDOW_PAD
        return (np.maximum(np.floor(mean - half), 0.0).astype(np.int64),
                np.ceil(mean + half).astype(np.int64))
    half = _WINDOW_SIGMAS * math.sqrt(mean + 1.0) + _WINDOW_PAD
    return max(0, int(math.floor(mean - half))), int(math.ceil(mean + half))


def marcum_q1(a, b):
    """First-order Marcum Q function Q1(a, b), valid for a, b >= 0.

    Stable well past a = b = 2000; monotone to within round-off
    (nondecreasing in a, nonincreasing in b) and always inside [0, 1].
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a < 0.0 or b < 0.0:
        raise ValueError("marcum_q1 requires finite a >= 0 and b >= 0")
    if b == 0.0:
        return 1.0
    y = 0.5 * b * b
    if a == 0.0:
        return math.exp(-y)
    w = 0.5 * a * a

    lo, hi = _poisson_window(w)
    k = np.arange(lo, hi + 1, dtype=float)
    # ln k! from the shared table, or, for a window past its limit, the
    # table's own lgamma values computed for the window alone
    lgk = (_log_factorial_table(hi + 1)[lo:] if hi < _WINDOW_TABLE_LIMIT
           else np.fromiter(map(math.lgamma, range(lo + 1, hi + 2)), float, hi + 1 - lo))
    pmf_w = np.exp(k * math.log(w) - w - lgk)
    pmf_y = np.exp(k * math.log(y) - y - lgk)
    # P(N_y <= k) along the window, seeded at the lower edge.
    edge, _ = _poisson_tails(lo + 1, y)
    cdf_y = np.minimum(edge + (np.cumsum(pmf_y) - pmf_y[0]), 1.0)
    q = float(np.dot(pmf_w, cdf_y))
    return min(1.0, max(0.0, q))


# ============================================================================
# Noncentral chi-square with 2 degrees of freedom
# ============================================================================


def ncx2_cdf(x, lam):
    """Distribution function at x of the 2-dof noncentral chi-square law.

    Returns 1 - marcum_q1(sqrt(lam), sqrt(x)), so the closure identity with
    the Marcum Q holds by construction.
    """
    x = float(x)
    lam = float(lam)
    if not (math.isfinite(x) and math.isfinite(lam)) or x < 0.0 or lam < 0.0:
        raise ValueError("ncx2_cdf requires finite x >= 0 and lam >= 0")
    return 1.0 - marcum_q1(math.sqrt(lam), math.sqrt(x))


# ln k! = lgamma(k + 1) for k = 0, 1, ...; marcum_q1 and Ncx2Family slice
# it. It starts empty and only grows, by rebinding the name to a longer
# fresh array whose new entries come from math.lgamma, so a reader holding
# the old table or a slice of it is never disturbed (thread-safe without a
# lock).
_log_factorials = np.empty(0)
# marcum_q1 reads the table only for windows that end below this many
# entries, so one far-out argument (a window of about 27,000 near k = 2e6
# at a = 2000) does not grow it to millions of entries for good.
_WINDOW_TABLE_LIMIT = 1 << 17


def _log_factorial_table(count: int) -> np.ndarray:
    """lgamma(k + 1) for k = 0 .. count - 1, as a read-only view."""
    global _log_factorials
    table = _log_factorials
    if table.size < count:
        size = max(count, 2 * table.size)
        grown = np.fromiter(map(math.lgamma, range(table.size + 1, size + 1)), float,
                            size - table.size)
        table = np.concatenate([table, grown])
        table.flags.writeable = False
        _log_factorials = table
    return table[:count]


def _poisson_table(log_means, means, k, lgk):
    """Poisson pmfs exp(k ln m - m - ln k!) as a (..., rows, counts) array.

    log_means and means (ln m and m, shape (..., rows)) give the rows, the
    counts k and their log-factorials lgk (shape (..., counts)) the columns.
    The exponent is the product of the rows (ln m, -m, -1) with the columns
    (k, 1, ln k!). Summed in that order it rounds as the three operations
    k ln m, then - m, then - ln k! would, the other factors being 1 and -1,
    and as a matrix product it costs a fraction of those broadcast
    operations (0.3 against 2 ns an entry for 16-row tables).
    """
    rows = np.empty(np.shape(means) + (3,))
    rows[..., 0] = log_means
    np.negative(means, out=rows[..., 1])
    rows[..., 2] = -1.0
    cols = np.empty(np.shape(k)[:-1] + (3,) + np.shape(k)[-1:])
    cols[..., 0, :] = k
    cols[..., 1, :] = 1.0
    cols[..., 2, :] = lgk
    # BLAS's matrix-matrix product sums the three terms in order; a one-row
    # product goes to its matrix-vector kernel, which does not, so a single
    # row takes einsum's sum, in order too
    out = (np.matmul(rows, cols) if rows.shape[-2] > 1
           else np.einsum("...it,...tk->...ik", rows, cols))
    return np.exp(out, out=out)


class Ncx2Family:
    """A fixed family of 2-dof noncentral chi-square laws evaluated jointly.

    The Gauss-Laguerre rule of the gain distribution needs F(x; lam_i) at
    many abscissas for the same node noncentralities lam_i. The Poisson
    mixture weights P(N_wi = k) depend only on the lam_i, so they are built
    once here as a dense (len(lams), kmax+1) matrix by _poisson_table, with
    ln k! read from a shared table. Each abscissa then costs one Poisson pmf
    row in k (kmax+1 exponentials) plus one matrix-vector product for the
    CDF and one for the density. The family keeps its last row, so pdf(x)
    right after tails(x), as every evaluation of the gain law asks for
    them, builds no second row. (The split rule's nodes move with x, so
    fas_stats tabulates them per abscissa, over each panel's band only,
    with the same arithmetic.)

    The CDF mixes the upper Poisson tails P(N_y > k), a reverse cumulative
    sum of positive terms with the mass beyond the window supplied by
    _poisson_tails, so the chi-square CDF keeps relative accuracy at small
    x instead of degrading to 1 - (something near 1).
    """

    def __init__(self, lams):
        lams = np.asarray(lams, dtype=float)
        if lams.ndim != 1 or lams.size == 0:
            raise ValueError("Ncx2Family requires a 1-d nonempty noncentrality array")
        top = float(lams.max())
        if not (float(lams.min()) >= 0.0 and top < math.inf):  # NaN fails both
            raise ValueError("noncentralities must be finite and >= 0")
        self.lams = lams
        means = 0.5 * lams
        _, hi = _poisson_window(0.5 * top)
        if lams.size * (hi + 1) > (1 << 24):
            raise NumericError(
                "noncentral chi-square family too large to tabulate "
                f"(max noncentrality {top:.3e}); "
                "reduce the correlation parameter or the quadrature order"
            )
        self._kmax = hi
        self._k = np.arange(hi + 1, dtype=float)
        self._lgk = _log_factorial_table(hi + 1)
        self._mix = _poisson_table(np.log(np.maximum(means, 1e-300)), means, self._k, self._lgk)
        self._last_row = (math.nan, None)  # no row yet; NaN equals no x

    def _pmf_y(self, x):
        # P(N_y = k) for N_y ~ Pois(x / 2), in one buffer. The last row is
        # kept read-only with its x, rebound as one pair, so threads sharing
        # the family always read a row with its own abscissa.
        last_x, row = self._last_row
        if x == last_x:
            return row
        y = 0.5 * x
        row = _poisson_table(np.array([math.log(max(y, 1e-300))]), np.array([y]), self._k,
                             self._lgk)[0]
        row.flags.writeable = False
        self._last_row = (x, row)
        return row

    def tails(self, x):
        """Return the array of F(x; lam_i), one CDF value per law."""
        x = float(x)
        if not math.isfinite(x) or x < 0.0:
            raise ValueError("tails requires finite x >= 0")
        pmf_y = self._pmf_y(x)
        # P(N_y > k): the within-window sum over j > k, taken from the top
        # down, plus P(N_y > kmax)
        upper = np.empty_like(pmf_y)
        np.cumsum(pmf_y[:0:-1], out=upper[-2::-1])
        _, beyond = _poisson_tails(self._kmax + 1, 0.5 * x)
        upper[:-1] += beyond
        upper[-1] = beyond
        return np.clip(self._mix @ upper, 0.0, 1.0)

    def pdf(self, x):
        """Densities f(x; lam_i) for every law in the family.

        The same Poisson mixture as tails: the 2k+2-dof central density at
        x is pmf_y(k) / 2, so f = (mix @ pmf_y) / 2, the exact x-derivative
        of the tabulated CDF and a sum of positive terms.
        """
        x = float(x)
        if not math.isfinite(x) or x < 0.0:
            raise ValueError("pdf requires finite x >= 0")
        return 0.5 * (self._mix @ self._pmf_y(x))
