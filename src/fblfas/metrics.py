"""Finite-blocklength performance metrics.

Two families of quantities live here. The interference-union bound on the
block error rate, conditional on a channel gain and averaged over the gain
distribution, and the SINR outage probability defined through a gain
threshold t_th. Both come with conventional L-antenna maximum ratio
combining counterparts used as benchmarks: under Rayleigh fading the MRC
combined gain is Gamma(L, sigma^2) (Simon and Alouini, Digital
Communication over Fading Channels, 2005), which gives the outage in closed
form. L is an integer, so P(G <= t) = P(N >= L) for a Poisson count N of
mean t / sigma^2, and specfun._poisson_tails gives both tails; no inverse
of them is needed. mrc_conditional_bler, the seeded Monte Carlo estimate
of the MRC average for one config, stays as its test oracle.

The bound h itself can exceed 1 at low gain. Every error rate here, the
FAS and MRC averages and the Monte Carlo estimates alike, is E[min(h(G), 1)]:
BLER <= 1 holds at every gain, so clamping before averaging is the tighter
valid bound. Both analytic averages run one routine, _clamped_average, a
closed-form head below the gain where h falls to 1 plus fixed-order
Gauss-Legendre panels above it, with every cut bounded relative to the
average; the adaptive integrator of the quadrature module is only its test
oracle. The raw bound stays available through conditional_bler_raw for
tightness studies.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import parallel
from .channel import SystemConfig
from .fas_stats import GainDistribution, _evaluate, _panel_rule, cdf_gfas
from .specfun import _poisson_tails

# Each cut of _clamped_average (the head, the top edge, the tail bound's
# top cut and the low ends) errs by at most this fraction of the average.
_SLACK = 1e-13
# Gauss-Legendre nodes per panel of _clamped_average. Against 128 nodes,
# at L = 1-8, U up to 30 and 0-50 dB, MRC panels of 16 nodes erred by up to
# 8e-11 at blocklengths 20 to 500 and of 24 by 5e-15. Against its own form
# with 40 nodes on panels four times narrower, the FAS average erred by at
# most 5.2e-11 over 137 points (N 5-5000, mu2 0.1-0.99, 0-40 dB, M 5 and
# 100, U 1-20), and by up to 1.0e-4 with panels one e-fold wide (M = 100,
# N = 5000, mu2 = 0.1, 36 dB).
_PANEL_ORDER = 24


def _positive_int(name, value):
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer")
    return int(value)


def combinatorial_exponent(users, selected) -> float:
    """2 ln C(users, selected), via log-gamma so large counts cannot overflow."""
    users = _positive_int("users", users)
    if not isinstance(selected, (int, np.integer)) or not 0 <= selected <= users:
        raise ValueError("selected must be an integer in [0, users]")
    selected = int(selected)
    return 2.0 * (
        math.lgamma(users + 1) - math.lgamma(selected + 1) - math.lgamma(users - selected + 1)
    )


@lru_cache(maxsize=128)
def _exponent_table(users: int) -> tuple:
    return tuple(combinatorial_exponent(users, k) for k in range(users + 1))


def _bler_params(users, blocklength, codeword_variance, noise_variance):
    users = _positive_int("users", users)
    blocklength = _positive_int("blocklength", blocklength)
    for name, v in (("codeword_variance", codeword_variance), ("noise_variance", noise_variance)):
        if not (v > 0.0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite")
    return users, blocklength


# Elements of the work buffer of conditional_bler_raw on arrays (512 KB):
# large enough for long inner loops, small enough to stay in cache.
_PANEL_ELEMENTS = 1 << 16


def _union_terms(users):
    """active = [1, ..., U], prefix = active / U and exponents 2 ln C(U, U')."""
    active = np.arange(1, users + 1, dtype=float)
    return active, active / users, np.asarray(_exponent_table(users))[1:]


def _union_bound(users, blocklength):
    """The union-bound sum for U users and blocklength M, as (active, bound).

    active is [1, ..., U]; bound(z) sums (U'/U) exp(2 ln C(U,U') - M log1p(z_U'))
    over U' along the last axis of z, where z_U' = U' sigma_c^2 g / (2 sigma_eta^2).
    Callers form z from active themselves, since the order of that product
    sets z's last bit.
    """
    active, prefix, exponents = _union_terms(users)

    def bound(z):
        return np.exp(exponents - blocklength * np.log1p(z)) @ prefix

    return active, bound


def conditional_bler_raw(users, blocklength, gain, codeword_variance, noise_variance):
    """Unclamped union bound at fixed gain; broadcasts over gain arrays.

    sum_{U'=1}^{U} (U'/U) exp(2 ln C(U,U') - M ln(1 + U' sigma_c^2 g / (2 sigma_eta^2)))
    where the log argument is 1 + interference_variance / (4 sigma_eta^2).

    Each element's terms are those of _union_bound, operation for operation,
    so the bits are too. They are formed a panel of gains at a time in a
    reused (U, panel) buffer, whose inner loops run along the gains, and
    copied into one C-ordered (n, U) array whose product with the prefix
    weights is the one _union_bound takes. That product sums a row in an
    order set by its place in the matrix, so a gain's last bits depend on
    the batch: the chunk size (parallel.CHUNK_DRAWS) fixes the last bits of
    every MC estimate, and each bound runs on whole chunks.
    """
    users, blocklength = _bler_params(users, blocklength, codeword_variance, noise_variance)
    g = np.asarray(gain, dtype=float)
    if g.size and (not np.all(np.isfinite(g)) or np.any(g < 0.0)):
        raise ValueError("gain must be finite and >= 0")
    active, prefix, exponents = _union_terms(users)
    scaled = (0.5 * codeword_variance / noise_variance) * g.reshape(-1)
    n = scaled.size
    terms = np.empty((n, users))
    panel = max(_PANEL_ELEMENTS // users, 1)
    work = np.empty((users, min(panel, n)))
    for start in range(0, n, panel):
        stop = min(start + panel, n)
        z = work[:, :stop - start]
        np.multiply(scaled[start:stop], active[:, None], out=z)
        np.log1p(z, out=z)
        np.multiply(blocklength, z, out=z)
        np.subtract(exponents[:, None], z, out=z)
        np.exp(z, out=z)
        np.copyto(terms[start:stop].T, z)
    raw = terms @ prefix
    if np.ndim(gain) == 0:
        return float(raw[0])
    return raw.reshape(g.shape)


def conditional_bler(users, blocklength, gain, codeword_variance, noise_variance):
    """Union bound clamped to [0, 1]; broadcasts over gain arrays."""
    raw = conditional_bler_raw(users, blocklength, gain, codeword_variance, noise_variance)
    if np.ndim(gain) == 0:
        return min(raw, 1.0)
    return np.minimum(raw, 1.0)


def _check_consistent(config: SystemConfig, dist: GainDistribution):
    if dist.channel_variance != config.channel_variance:
        raise ValueError(
            "config and distribution disagree on the channel variance "
            f"({config.channel_variance} vs {dist.channel_variance})"
        )
    if dist.model.ports != config.ports:
        raise ValueError(
            f"config has {config.ports} ports but the distribution models {dist.model.ports}"
        )


def _interpolation(points):
    """Matrix taking values on the _PANEL_ORDER Legendre nodes to values at points.

    Lagrange interpolation in the barycentric form (Berrut and Trefethen,
    SIAM Review 46, 2004), whose weights for the nodes x_k and weights w_k
    of a Gauss-Legendre rule are (-1)^k sqrt((1 - x_k^2) w_k) up to a common
    factor that cancels. points lie in [-1, 1]; a point that is a node
    reads that node's value.
    """
    rule = _panel_rule(_PANEL_ORDER)
    signs = np.where(np.arange(_PANEL_ORDER) % 2 == 0, 1.0, -1.0)
    diff = points[:, None] - rule.nodes
    exact = diff == 0.0
    terms = signs * np.sqrt((1.0 - rule.nodes ** 2) * rule.weights) / np.where(exact, 1.0, diff)
    hits = exact.any(axis=1)
    terms[hits] = exact[hits]
    return terms / terms.sum(axis=1, keepdims=True)


def _clamped_average(config: SystemConfig, variance, cdf, density, per_efold) -> float:
    """E[min(h(G), 1)] of the union bound h over a gain law G of scale sigma^2.

    cdf(t) is P(G <= t); density(t) is the density on an array of t. Both
    are read only on a fixed grid: the edges t_j = sigma^2 e^(j/m) and the
    _PANEL_ORDER Gauss-Legendre nodes of the panels [t_j, t_(j+1)] in
    u = ln t, m the larger of ceil(sqrt(M) / 3) and per_efold, the law's own
    need. The grid depends only on sigma^2 and m, so the points of a curve
    share every value they read.

    h falls in the gain, so below the kink s where it falls to 1 - _SLACK
    (bisected geometrically to a relative width of 1e-12; it depends only
    on U, M and the two variances) min(h, 1) lies in [1 - _SLACK, 1], and
    that part of the average is taken as the head. Above s, h f t is summed
    panel by panel. The panel [t_j, t_(j+1)] that holds s is evaluated
    whole, and f t is carried to [t_j, s] and [s, t_(j+1)] by barycentric
    Lagrange interpolation on its nodes: the head is F(t_j) plus the
    interpolant's integral over [t_j, s].

    The top edge is the first where F reaches 1 - _SLACK (every F is at
    most the single-port 1 - exp(-t / sigma^2), so the search starts where
    that does), so the mass above it is at most _SLACK / (1 - _SLACK) of
    the average. The edge CDFs from there down bound the average from below
    before any density is read: h is least on a panel at its upper edge, so
    L = sum_j min(h(t_j), 1) (F(t_j) - F(t_(j-1))) over the edges read, the
    lowest t_low taking all of F(t_low) (at least (1 - _SLACK) F(t_low) when
    t_low is the cut panel's lower edge). The mass above an edge t is at
    most min(h(t), 1) (1 - F(t)), so every panel above the lowest edge
    where that tail is at most _SLACK / 2 of L is dropped.

    The edges are read down to the cut panel's, or to the first whose F is
    at most _SLACK of the bound summed above it. The panels stop there, or
    once F(edge) is at most _SLACK of their sum, since min(h, 1) <= 1
    bounds all that lies below the edge, head included.
    """
    active, bound = _union_bound(config.users, config.blocklength)
    coef = 0.5 * config.codeword_variance / config.noise_variance * active
    target = 1.0 - _SLACK

    def h(t):
        return float(bound(coef * t))

    hi = 1.0 / coef[-1]
    while h(hi) > target:
        hi *= 2.0
    lo = 0.5 * hi
    while not h(lo) > target:
        lo, hi = 0.5 * lo, lo
    while hi > lo * (1.0 + 1e-12):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if h(mid) > target else (lo, mid)
    kink = hi

    per_efold = max(math.ceil(math.sqrt(config.blocklength) / 3.0), per_efold)

    def edge(j):
        return variance * math.exp(j / per_efold)

    top = math.ceil(per_efold * math.log(-math.log(_SLACK)))
    while (value := cdf(edge(top))) < target:
        top += 1
    cut = per_efold * math.log(kink / variance)
    base = min(math.floor(cut), top)

    # F and min(h, 1) at the edges from the top down, and the part of L
    # summed above the lowest edge read
    cdfs, caps, above = [value], [min(h(edge(top)), 1.0)], 0.0
    for j in range(top - 1, base - 1, -1):
        cdfs.append(cdf(edge(j)))
        caps.append(min(h(edge(j)), 1.0))
        above += caps[-2] * (cdfs[-2] - cdfs[-1])
        if cdfs[-1] <= _SLACK * above:
            break
    low = top - len(cdfs) + 1
    threshold = 0.5 * _SLACK * (above + caps[-1] * cdfs[-1])
    upper = top
    for cap, level in zip(caps[1:], cdfs[1:]):
        if cap * (1.0 - level) > threshold:
            break
        upper -= 1

    rule = _panel_rule(_PANEL_ORDER)
    offsets = 0.5 + 0.5 * rule.nodes
    weights = (0.5 / per_efold) * rule.weights

    def nodes(low, high):
        # the nodes over [low, high], in grid units of u, 1 / per_efold each
        return variance * np.exp((low + (high - low) * offsets) / per_efold)

    def panel(t, ft):
        return float(np.dot(weights, bound(t[:, None] * coef) * ft))

    total = 0.0
    for j in range(upper - 1, low, -1):
        t = nodes(j, j + 1)
        total += panel(t, density(t) * t)
        if cdfs[top - j] <= _SLACK * total:
            return total
    head = cdfs[-1] if low == base else 0.0
    if upper > low:
        t = nodes(low, low + 1)
        ft = density(t) * t
        if low > base:
            total += panel(t, ft)
        else:
            share = cut - base
            inside = _interpolation(2.0 * (share + (1.0 - share) * offsets) - 1.0)
            below = _interpolation(2.0 * share * offsets - 1.0)
            total += (1.0 - share) * panel(nodes(cut, base + 1), inside @ ft)
            head += share * float(np.dot(weights, below @ ft))
    return min(total + head, 1.0)


def statistical_bler(config: SystemConfig, dist: GainDistribution) -> float:
    """Average clamped union bound E[min(h(G), 1)] over the FAS gain distribution.

    Summed by _clamped_average from cdf_gfas of dist at the panel edges
    and its densities on each panel's nodes, evaluated as one batch
    (fas_stats._evaluate). Both read dist's one memo of (CDF, density)
    pairs, which the points of a curve share: they read one grid of panel
    edges and nodes, the panel that holds a point's kink included, and
    differ only in which panels they sum.
    """
    _check_consistent(config, dist)
    return _clamped_average(config, dist.channel_variance, lambda t: cdf_gfas(dist, t),
                            lambda t: _evaluate(dist, t.tolist())[1], 1)


def codeword_correlation(blocklength) -> float:
    """Average correlation sqrt(pi / (4 M)) between length-M codewords."""
    blocklength = _positive_int("blocklength", blocklength)
    return math.sqrt(math.pi / (4.0 * blocklength))


def outage_threshold(config: SystemConfig) -> float:
    """Gain threshold t_th = sigma_eta^2 gamma_th / (1 - (U-1)(U rho + 1) gamma_th).

    t_th is the gain level below which the SINR target gamma_th cannot be
    met, rho = codeword_correlation(M). It is math.inf (saturated) when
    interference alone already forbids the target for every gain.
    """
    rho = codeword_correlation(config.blocklength)
    gamma = config.outage_threshold
    denom = 1.0 - (config.users - 1) * (config.users * rho + 1.0) * gamma
    return math.inf if denom <= 0.0 else config.noise_variance * gamma / denom


def outage_probability(config: SystemConfig, dist: GainDistribution) -> float:
    """P(SINR < gamma_th) = F_gain(t_th); 1 when the event is saturated."""
    _check_consistent(config, dist)
    t_th = outage_threshold(config)
    if math.isinf(t_th):
        return 1.0
    return cdf_gfas(dist, t_th)


def mrc_outage(branches, config: SystemConfig) -> float:
    """Outage of an L-branch MRC receiver with i.i.d. Rayleigh branches.

    The combined gain is Gamma(L, sigma^2), so the outage is the regularized
    lower incomplete gamma P(L, t_th / sigma^2), the chance that a Poisson
    count of mean t_th / sigma^2 reaches L.
    """
    branches = _positive_int("branches", branches)
    t_th = outage_threshold(config)
    if math.isinf(t_th):
        return 1.0
    _, outage = _poisson_tails(branches, t_th / config.channel_variance)
    return outage


def mrc_statistical_bler(branches, config: SystemConfig) -> float:
    """Average clamped union bound E[min(h(G), 1)] of an L-branch MRC receiver.

    The combined gain G is Gamma(L, sigma^2): _clamped_average sums it from
    the Poisson-tail CDF (specfun._poisson_tails, so no inverse of the
    incomplete gamma is needed) and the Gamma density, on panels at most
    8 / sqrt(L) of an e-fold wide, so the Gamma bulk stays resolved at
    large L.

    It draws nothing; mrc_conditional_bler, the seeded Monte Carlo of the
    same average, is its test oracle.
    """
    branches = _positive_int("branches", branches)
    variance = config.channel_variance
    scale = branches * math.log(variance) + math.lgamma(branches)

    def cdf(t):
        return _poisson_tails(branches, t / variance)[1]

    def density(t):
        return np.exp((branches - 1) * np.log(t) - t / variance - scale)

    return _clamped_average(config, variance, cdf, density,
                            math.ceil(math.sqrt(branches) / 8.0))


def mrc_conditional_bler(branches, config: SystemConfig, trials, seed, workers=None) -> float:
    """Average clamped union bound over seeded Gamma(L, sigma^2) gain draws.

    No sweep calls it: it is the Monte Carlo oracle of mrc_statistical_bler.

    Deterministic for a given seed regardless of worker count (fixed-size
    chunks with per-chunk generators, exact order-independent reduction).
    """
    branches = _positive_int("branches", branches)
    trials = _positive_int("trials", trials)

    def task(index, size):
        rng = parallel.chunk_rng(seed, index)
        gains = rng.gamma(shape=branches, scale=config.channel_variance, size=size)
        return float(np.sum(conditional_bler(config.users, config.blocklength, gains,
                                             config.codeword_variance, config.noise_variance)))

    return math.fsum(parallel.run_chunks(task, trials, workers)) / trials
