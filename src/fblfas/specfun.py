"""Special functions for noncentral chi-square tail work.

Everything that feeds the gain distribution runs through here: the
exponentially scaled Bessel I0, the first-order Marcum Q function, and the
density / distribution function of the 2-degree-of-freedom noncentral
chi-square law. The correlation regimes of interest push the noncentrality
to a few tens of thousands, so all probabilities are assembled from sums of
positive terms with the seeds of those sums carried in log space; nothing
in this module evaluates e^x * I0(x) unscaled or exponentiates a large
positive number.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln

from .errors import NumericError

__all__ = [
    "bessel_i0_scaled",
    "marcum_q1",
    "ncx2_pdf",
    "ncx2_cdf",
    "Ncx2Family",
]

_EPS = np.finfo(float).eps

# ============================================================================
# Exponentially scaled modified Bessel function of order zero
# ============================================================================

# Below the seam the ascending series converges with every term positive, so
# there is no cancellation; the largest intermediate at x = 50 is ~3e19, far
# from overflow. Above the seam the Hankel asymptotic series reaches machine
# precision in well under 25 terms (its error floor ~e^(-2x) is negligible
# for x >= 50).
_SERIES_SEAM = 50.0


def _i0_scaled_series(x):
    # e^(-x) * sum_k (x^2/4)^k / (k!)^2
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 121):
        term = term * q / (k * k)
        total += term
        if np.all(term <= total * 1e-18):
            break
    return total * np.exp(-x)


def _i0_scaled_asymptotic(x):
    # (2 pi x)^(-1/2) * sum_k ((2k-1)!!)^2 / (k! (8x)^k)
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 26):
        term = term * (2 * k - 1) ** 2 / (8.0 * k * x)
        total += term
        if np.all(term <= total * 1e-18):
            break
    return total / np.sqrt(2.0 * np.pi * x)


def bessel_i0_scaled(x):
    """Evaluate e^(-x) * I0(x) for x >= 0.

    Ascending power series below x = 50, scaled asymptotic expansion above;
    the two branches agree to better than 1e-13 relative at the seam.
    Accepts a scalar or an ndarray; returns a float for scalar input.
    The result lies in (0, 1] and decays like 1/sqrt(2 pi x).
    """
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("bessel_i0_scaled requires finite x >= 0")
    out = np.empty_like(arr)
    small = arr < _SERIES_SEAM
    if np.any(small):
        out[small] = _i0_scaled_series(arr[small])
    big = ~small
    if np.any(big):
        out[big] = _i0_scaled_asymptotic(arr[big])
    if scalar:
        return float(out[0])
    return out.reshape(np.shape(x))


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
# of N_y at the window edge is seeded from the regularized incomplete gamma
# and then advanced by the pmf recurrence. The neglected mass is bounded by
# the Poisson tail beyond ~9.5 standard deviations (< 1e-19), and every
# retained term is positive, so tiny results keep their relative accuracy
# and huge arguments merely underflow to 0 instead of overflowing.

_WINDOW_SIGMAS = 9.5
_WINDOW_PAD = 26


def _poisson_window(mean):
    half = _WINDOW_SIGMAS * math.sqrt(mean + 1.0) + _WINDOW_PAD
    lo = max(0, int(math.floor(mean - half)))
    hi = int(math.ceil(mean + half))
    return lo, hi


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
    lgk = gammaln(k + 1.0)
    pmf_w = np.exp(k * math.log(w) - w - lgk)
    pmf_y = np.exp(k * math.log(y) - y - lgk)
    # P(N_y <= k) along the window, seeded at the lower edge.
    edge = float(gammaincc(lo + 1.0, y))
    cdf_y = np.minimum(edge + (np.cumsum(pmf_y) - pmf_y[0]), 1.0)
    q = float(np.dot(pmf_w, cdf_y))
    return min(1.0, max(0.0, q))


# ============================================================================
# Noncentral chi-square with 2 degrees of freedom
# ============================================================================


def ncx2_pdf(x, lam):
    """Density (1/2) e^(-(x+lam)/2) I0(sqrt(lam x)) at x >= 0.

    Evaluated as exp(-(sqrt(x) - sqrt(lam))^2 / 2) * i0_scaled(sqrt(lam x)) / 2,
    which keeps the exponent non-positive for any argument size.
    """
    x = float(x)
    lam = float(lam)
    if not (math.isfinite(x) and math.isfinite(lam)) or x < 0.0 or lam < 0.0:
        raise ValueError("ncx2_pdf requires finite x >= 0 and lam >= 0")
    rx = math.sqrt(x)
    rl = math.sqrt(lam)
    return 0.5 * math.exp(-0.5 * (rx - rl) ** 2) * bessel_i0_scaled(rx * rl)


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


# gammaln(k + 1) for k = 0, 1, ...; Ncx2Family slices it. It starts empty and
# only grows, by rebinding the name to a longer fresh array, so a reader
# holding the old table or a slice of it is never disturbed (thread-safe
# without a lock).
_log_factorials = np.empty(0)


def _log_factorial_table(count: int) -> np.ndarray:
    """gammaln(k + 1) for k = 0 .. count - 1, as a read-only view."""
    global _log_factorials
    table = _log_factorials
    if table.size < count:
        table = gammaln(np.arange(1.0, max(count, 2 * table.size) + 1.0))
        table.flags.writeable = False
        _log_factorials = table
    return table[:count]


class Ncx2Family:
    """A fixed family of 2-dof noncentral chi-square laws evaluated jointly.

    The gain-distribution quadrature needs F(x; lam_i) and its complement at
    one shared abscissa for every quadrature node's noncentrality lam_i. The
    Poisson mixture weights P(N_wi = k) depend only on the lam_i, so they are
    built once here as a dense (len(lams), kmax+1) matrix, in one buffer,
    with ln k! read from a shared table. Each abscissa then costs one Poisson
    pmf row in k (kmax+1 exponentials) plus one matrix-vector product per
    tail and one for the density. The family keeps its last row, so pdf(x)
    right after tails(x), as the gain density asks for them, builds no
    second row.

    Both tails come from cumulative sums taken in the direction that keeps
    them sums of positive terms (forward for the lower Poisson CDF, reverse
    for the upper), with the mass beyond the window supplied by the
    regularized incomplete gamma. The lower tail of the chi-square law
    therefore keeps relative accuracy at small x instead of degrading to
    1 - (something near 1).
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
        k = np.arange(hi + 1, dtype=float)
        self._k = k
        self._lgk = _log_factorial_table(hi + 1)
        # exp(k ln m - m - ln k!), one operation at a time in one buffer
        mix = np.multiply(k[None, :], np.log(np.maximum(means, 1e-300))[:, None])
        np.subtract(mix, means[:, None], out=mix)
        np.subtract(mix, self._lgk, out=mix)
        self._mix = np.exp(mix, out=mix)
        self._last_row = (math.nan, None)  # no row yet; NaN equals no x

    def _pmf_y(self, x):
        # P(N_y = k) for N_y ~ Pois(x / 2), in one buffer. The last row is
        # kept read-only with its x, rebound as one pair, so threads sharing
        # the family always read a row with its own abscissa.
        last_x, row = self._last_row
        if x == last_x:
            return row
        y = 0.5 * x
        row = np.multiply(self._k, math.log(max(y, 1e-300)))
        np.subtract(row, y, out=row)
        np.subtract(row, self._lgk, out=row)
        np.exp(row, out=row)
        row.flags.writeable = False
        self._last_row = (x, row)
        return row

    def tails(self, x):
        """Return (cdf, sf) arrays: F(x; lam_i) and 1 - F(x; lam_i) per law."""
        x = float(x)
        if not math.isfinite(x) or x < 0.0:
            raise ValueError("tails requires finite x >= 0")
        pmf_y = self._pmf_y(x)
        lower = np.minimum(np.cumsum(pmf_y), 1.0)  # P(N_y <= k), window part
        # P(N_y > k): the within-window sum over j > k, taken from the top
        # down, plus P(N_y > kmax)
        upper = np.empty_like(pmf_y)
        np.cumsum(pmf_y[:0:-1], out=upper[-2::-1])
        beyond = float(gammainc(self._kmax + 1.0, 0.5 * x))
        upper[:-1] += beyond
        upper[-1] = beyond
        sf = self._mix @ lower
        cdf = self._mix @ upper
        return np.clip(cdf, 0.0, 1.0), np.clip(sf, 0.0, 1.0)

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
