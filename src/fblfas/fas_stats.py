"""Analytic distribution of the selected-port gain max_k |g_k|^2.

Under the block model the N ports split into B independent groups. Within a
group every port gain shares one latent exponential draw u with weight mu^2,
and conditioned on u the per-port gains are i.i.d. scaled noncentral
chi-square with 2 degrees of freedom and noncentrality 2 mu^2 u / (1 - mu^2).
The maximum over a group of size L therefore has the conditional CDF
F2(x; lam(u))^L, and integrating the latent draw out with its e^(-u) weight
gives one latent-variable integral per group:

    G_L(x) = int_0^inf e^(-u) F2(x; lam(u))^L du,    lam(u) = 2 mu^2 u / (1 - mu^2).

Where the Gauss-Laguerre rule resolves the bracket F2^L (weak correlation)
G_L is its sum sum_i w_i F2(x; lam(u_i))^L. At strong correlation the
bracket falls from 1 to 0 over a range of u narrower than the Laguerre node
spacing, and the integral is split at that fall instead: closed-form mass
below it, Gauss-Legendre panels across it, nothing beyond it where the
remainder is provably negligible (_split_plan). Either way the rule is
accurate to about 1e-10 for mu^2 up to 0.99 at the default order 32. The
order sets only the Laguerre rule and where it is kept: the split rule's
panels have _PANEL_NODES nodes at every order. A size-1 group cannot select
and is the exponential marginal in closed form.

The full CDF is the product of the group factors, and the density
differentiates that product term by term. Everything is evaluated on the
chi-square abscissa x = 2t / (sigma^2 (1 - mu^2)); the same factor is the
Jacobian that rescales densities back to the gain variable t.

The Laguerre nodes are fixed, so one Ncx2Family per distribution gives
their noncentral chi-square values at every abscissa. The split rule's
nodes follow the fall as x moves: one array kernel (_split_plan,
_split_factors) takes a batch of abscissas at once, on Poisson tables cut
to each panel's band, and each value it returns depends on its own
abscissa only. A single evaluation is a batch of one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from statistics import NormalDist

import numpy as np

from .errors import NumericError
from .quadrature import QuadratureRule, gauss_laguerre, gauss_legendre, integrate_adaptive
from .specfun import (Ncx2Family, _log_factorial_table, _poisson_table, _poisson_tails,
                      _poisson_window, ncx2_cdf)
from .channel import BlockModel


@dataclass(frozen=True)
class GainDistribution:
    """Distribution of the selected-port gain for one block model.

    Immutable. Where the Gauss-Laguerre rule resolves a block's bracket, its
    per-node chi-square family is built lazily on first use and then
    reused; elsewhere the split rule places its nodes per abscissa (see
    _split_plan).

    The instance is also the unit of reuse: one evaluation at t gives both
    the CDF and the density, and the instance remembers that pair, keyed by
    the float argument, for cdf_gfas, pdf_gfas and the batches of _evaluate
    alike. The error-bound points of a curve average over one distribution
    on one grid of panels, so they share one evaluation per node and per
    panel edge, and a panel's nodes are evaluated as one batch; even the
    panel that holds a point's kink is a whole grid panel, interpolated
    across the kink, so no value is a single point's own. Values are pure
    functions of (instance, argument), whatever batch the argument came in:
    a hit returns the bits a fresh evaluation alone would. The memo stops
    growing at _MEMO_ENTRIES pairs and lives as long as the instance, so
    sweeps over t, SNR or user count should go through a single instance.

    The reference scale is channel_variance = 2: evaluations at a general
    sigma^2 map the argument through t' = 2 t / sigma^2 (and densities pick
    up the matching 2 / sigma^2 factor).
    """

    model: BlockModel
    channel_variance: float = 2.0
    rule: QuadratureRule = field(default_factory=lambda: gauss_laguerre(32))

    def __post_init__(self):
        if not (self.channel_variance > 0.0 and math.isfinite(self.channel_variance)):
            raise ValueError("channel_variance must be positive and finite")
        if not isinstance(self.rule, QuadratureRule):
            raise ValueError("rule must be a QuadratureRule")

    @cached_property
    def _xscale(self) -> float:
        # d(chi-square abscissa)/dt, also used as the density Jacobian.
        return 2.0 / (self.channel_variance * (1.0 - self.model.mu2))

    @cached_property
    def _lam_rate(self) -> float:
        return 2.0 * self.model.mu2 / (1.0 - self.model.mu2)

    @cached_property
    def _family(self) -> Ncx2Family:
        return Ncx2Family(self._lam_rate * self.rule.nodes)

    @cached_property
    def _size_counts(self) -> tuple:
        # Distinct block sizes with multiplicities; each distinct size needs
        # its quadrature sums only once per abscissa.
        return tuple(sorted(Counter(self.model.block_sizes).items()))

    @cached_property
    def _memo(self) -> dict:
        # (cdf, pdf) pairs by t; see the class docstring.
        return {}


# Most (CDF, density) pairs the memo of a GainDistribution keeps (2.7 MB
# when full); a batch evaluated past the cap is returned whole but not
# remembered. Every default bler-vs-* curve evaluates at most 404 per
# distribution (bler-vs-w; 351 for the 20 points of bler-vs-u, 200 for
# dist, as one batch); one error-bound point at large blocklength and high
# SNR can evaluate thousands (9,441, on 372 panels of 24 nodes and 513
# edges, for one port at U = 1, M = 1000 and 60 dB, where the kink lies far
# below the bulk).
_MEMO_ENTRIES = 1 << 14


def _checked_t(t, allow_zero: bool):
    t = float(t)
    if math.isnan(t) or t < 0.0 or (t == 0.0 and not allow_zero):
        kind = "t >= 0" if allow_zero else "t > 0"
        raise ValueError(f"gain argument must satisfy {kind}")
    return t


# ----------------------------------------------------------------------------
# The latent-variable integral G_L(x) = int_0^inf e^(-u) F2(x; lam u)^L du
# ----------------------------------------------------------------------------
#
# In s = sqrt(lam u) the bracket F2(x; s^2)^L is a sigmoid: F2(x; s^2) is the
# probability that a unit-variance complex Gaussian centred at s lands in
# the disc of radius r = sqrt(x), so it falls from F2(x; 0) to 0 over a width
# of order 1 around s = r, and the L-th power moves that fall to the left
# and narrows it. Gauss-Laguerre nodes sit about (pi/2) sqrt(lam/n) apart in
# s, which resolves the fall only while lam is small. Otherwise the integral
# is split at the fall: below it the bracket is 1 to round-off and the
# e^(-u) mass is taken in closed form, a few Gauss-Legendre panels in s
# cover the fall, and the mass beyond is dropped where provably negligible.

# Bracket level, relative to its value at u = 0, below which mass is dropped
# and above which (as 1 - bracket) it counts as 1.
_NEGLIGIBLE = 1e-17
# Laguerre nodes per transition width of the bracket needed to keep the
# plain rule; below it the split rule takes the block. Measured over mu2
# 0.1-0.9, block sizes 1-4997 and x across the bulk and the left tail, the
# plain rule's relative error is below 1e-11 from 2 on at orders up to 64
# (up to 1e-9 at orders 128-256) and near 1e-8 at 1.5. Low orders keep the
# plain rule only at weak correlation: against order 128 the gain CDF errs
# by at most 5.5e-10 at order 8 and 3.0e-11 at order 16 (mu2 0.1-0.97,
# N = 10 and 200, t 0.01-60).
_MIN_NODES_PER_WIDTH = 2.0
# The inner panel edges sit this many transition widths either side of the
# transition centre.
_FLANK_WIDTHS = 3.0


@lru_cache(maxsize=None)
def _panel_rule(order: int) -> QuadratureRule:
    return gauss_legendre(order)


# Gauss-Legendre nodes per panel of the split rule, at every order of the
# Laguerre rule. Panels of 4 and 8 nodes do not resolve the fall: the gain
# CDF erred by up to 1.2e-1 and 1.5e-5 against order 128, and the CDF and
# the density disagreed by up to 100% and 5.7e-3 of a panel's mass. The
# default order 32 has always had 16-node panels, so its values keep their
# bits.
_PANEL_NODES = 16
# Most entries (8 bytes each) of the Poisson tables that the split rule
# builds in one buffer. On the abscissas of the benchmark's workloads the
# block factors took the same time from 60k to 250k entries, 8-12% more at
# 15k-30k (more buffers) and 15-30% more at 1M (past the 2 MiB L2 cache).
_TABLE_ENTRIES = 1 << 17

_STANDARD_NORMAL = NormalDist()


def _normal_quantile(p: float) -> float:
    """Standard normal quantile Phi^(-1)(p) for 0 <= p < 1; -inf at p = 0."""
    return _STANDARD_NORMAL.inv_cdf(p) if p > 0.0 else -math.inf


def _split_plan(x, lam_rate: float, size: int, order: int):
    """Split rule for G_size at the abscissas x (an array with x / 2 > 0).

    Returns (split, base, s, weights, first). split marks the abscissas at
    which Gauss-Laguerre of the given order does not resolve the bracket,
    by _MIN_NODES_PER_WIDTH; the other arrays serve only those. There
    G = base + sum_i w_i F2(x; s_i^2)^size: base is the closed-form mass
    below the transition, and rows first[a] .. first[a + 1] - 1 of the
    (panels, _PANEL_NODES) arrays s and weights hold the nodes and weights
    of abscissa a's Gauss-Legendre panels in s, up to four in increasing s,
    or none where the bracket is negligible above the closed-form part.
    The edges are a few scalar steps per abscissa; the nodes and weights of
    all panels are formed together.
    """
    # Transition centre and width from F2(x; s^2) ~ Phi(r - s): the bracket
    # is 1/2 where 1 - F2 = 1 - 2^(-1/L).
    half = -math.expm1(-math.log(2.0) / size)
    z = -_normal_quantile(half)
    width = (1.0 - half) / (size * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))
    spacing = 0.5 * math.pi * math.sqrt(lam_rate / order)
    log_tol = math.log(_NEGLIGIBLE)
    below = math.sqrt(2.0 * (math.log(size) - log_tol))
    level = math.exp(log_tol / size)
    decay = math.sqrt(-2.0 * log_tol)
    weight_cut = math.sqrt(-lam_rate * log_tol)
    # The two tail bounds bracket the crossing; take their midpoint.
    offset = 0.5 * (z + math.sqrt(-2.0 * math.log(half)))
    split, base, edges, first = [], [], [], []
    for xi in x.tolist():
        r = math.sqrt(xi)
        y = 0.5 * xi
        f0 = -math.expm1(-y)  # F2(x; 0), the bracket root at s = 0
        # ln F2 is concave in the noncentrality (a Poisson transform of a
        # log-concave sequence), so its slope at 0, -y e^(-y) / (2 f0),
        # bounds the bracket by f0^L exp(-s^2 / (2 sigma0^2)).
        slope = y * math.exp(-y) / f0
        sigma0 = 1.0 / math.sqrt(size * slope) if slope > 0.0 else math.inf
        split.append(min(width, sigma0) < _MIN_NODES_PER_WIDTH * spacing)
        if not split[-1]:
            continue
        # 1 - F2 <= exp(-(r - s)^2 / 2) below r, so the bracket is 1 - tol
        # there. Beyond s_hi it is below tol * f0^L by F2 <= Phi(r - s), by
        # the concavity bound, or the e^(-u) weight is below tol.
        s_lo = max(0.0, r - below)
        s_hi = min(r - _normal_quantile(level * f0), sigma0 * decay, weight_cut)
        base.append(-math.expm1(-s_lo * s_lo / lam_rate))
        first.append(len(edges))
        if not s_hi > s_lo:
            continue
        # When the crossing falls below s_lo the bracket decays from s = 0
        # on the scale sigma0.
        centre, scale = r - offset, width
        if centre < s_lo:
            centre, scale = s_lo, min(width, sigma0)
        flank = _FLANK_WIDTHS * scale
        cuts = [s_lo] + [e for e in (centre - flank, centre, centre + flank) if s_lo < e < s_hi]
        edges += zip(cuts, cuts[1:] + [s_hi])
    first.append(len(edges))
    panel = _panel_rule(_PANEL_NODES)
    lows, highs = np.array(edges).reshape(-1, 2, 1).transpose(1, 0, 2)
    mid = 0.5 * (highs + lows)
    halfw = 0.5 * (highs - lows)
    s = mid + halfw * panel.nodes
    # ds-weight of the e^(-u) du measure: (2 s / lam) exp(-s^2 / lam)
    weights = (halfw * panel.weights) * (2.0 * s / lam_rate) * np.exp(-s * s / lam_rate)
    return np.array(split, dtype=bool), np.array(base), s, weights, first


def _batches(widths, rows):
    """Batches of item indices, narrowest items first, whose rows times the
    widest width stay within _TABLE_ENTRIES (an item wider than that alone)."""
    batch, total = [], 0
    for i in sorted(range(len(widths)), key=widths.__getitem__):
        if batch and (total + rows[i]) * widths[i] > _TABLE_ENTRIES:
            yield batch
            batch, total = [], 0
        batch.append(i)
        total += rows[i]
    if batch:
        yield batch


def _split_factors(x, size: int, base, s, weights, first):
    """G_size and its slope at the split abscissas x from their panels (_split_plan).

    F2(x; lam) mixes the Poisson pmfs of N_w ~ Pois(lam / 2) with the upper
    tails P(N_y > k) of N_y ~ Pois(x / 2), and its density mixes them with
    the pmf of N_y, halved: the Poisson mixture of specfun.Ncx2Family, with
    the same arithmetic. A panel's table runs over its own band, the counts
    k from the lower Poisson-window edge of its first node's mean to the
    upper edge of its last one's, so it holds every node's window (the mass
    below a window is under 1e-19), plus a row for the pmf of N_y. An
    abscissa's upper tails run over the union of its panels' bands, with
    the mass beyond taken from _poisson_tails; consecutive panels' bands
    overlap, as their nodes lie closer than a window's half-width.

    The tables of a batch of abscissas, up to _TABLE_ENTRIES entries, share
    one buffer padded to their widest band, and each panel is reduced over
    its own band alone, so a value's bits depend on its own abscissa only.
    """
    values = base.copy()
    slopes = np.zeros(len(base))
    held = [a for a in range(len(base)) if first[a + 1] > first[a]]
    if not held:
        return values, slopes
    nodes = s.shape[1]
    y = (0.5 * x).tolist()
    owner = [a for a in held for _ in range(first[a], first[a + 1])]
    means = np.empty((len(s), nodes + 1))
    np.multiply(0.5, s * s, out=means[:, :-1])
    means[:, -1] = [y[a] for a in owner]
    log_means = np.log(np.maximum(means, 1e-300))
    log_means[:, -1] = [math.log(max(y[a], 1e-300)) for a in owner]
    lo = _poisson_window(means[:, 0])[0].tolist()
    hi = _poisson_window(means[:, -2])[1].tolist()
    widths = [b - a + 1 for a, b in zip(lo, hi)]
    cdfs, dens = np.empty(s.shape), np.empty(s.shape)
    for batch in _batches([max(widths[first[a]:first[a + 1]]) for a in held],
                          [(nodes + 1) * (first[a + 1] - first[a]) for a in held]):
        batch = [held[i] for i in batch]
        panels = [j for a in batch for j in range(first[a], first[a + 1])]
        # a row's padding repeats its last count: exp is slow on the far
        # tails (13-150 ns an entry below about -708, against 1 ns)
        k = np.minimum(np.array([lo[j] for j in panels])[:, None]
                       + np.arange(max(widths[j] for j in panels)),
                       np.array([hi[j] for j in panels])[:, None])
        tables = _poisson_table(log_means[panels], means[panels], k,
                                _log_factorial_table(int(k[:, -1].max()) + 1)[k])
        # P(N_y = k) and P(N_y > k) over each abscissa's band, the union of
        # its panels' bands, from its lowest count on; zero-padded
        bands = [(j, i, lo[j] - lo[first[a]], widths[j])
                 for i, a in enumerate(batch) for j in range(first[a], first[a + 1])]
        pmf = np.zeros((len(batch), max(hi[first[a + 1] - 1] - lo[first[a]] + 1 for a in batch)))
        for row, (j, i, offset, width) in enumerate(bands):
            pmf[i, offset:offset + width] = tables[row, -1, :width]
        upper = np.empty_like(pmf)
        np.cumsum(pmf[:, :0:-1], axis=1, out=upper[:, -2::-1])
        upper[:, -1] = 0.0
        upper += np.array([[_poisson_tails(hi[first[a + 1] - 1] + 1, y[a])[1]] for a in batch])
        for row, (j, i, offset, width) in enumerate(bands):
            table = tables[row, :-1, :width]
            np.matmul(table, upper[i, offset:offset + width], out=cdfs[j])
            np.matmul(table, pmf[i, offset:offset + width], out=dens[j])
    np.maximum(cdfs, 0.0, out=cdfs)
    np.minimum(cdfs, 1.0, out=cdfs)
    dens *= 0.5
    powm1 = cdfs ** (size - 1)
    mass, slope, nodal = (powm1 * cdfs).ravel(), (powm1 * dens).ravel(), weights.ravel()
    for a in held:
        at = slice(nodes * first[a], nodes * first[a + 1])
        values[a] = min(base[a] + float(np.dot(nodal[at], mass[at])), 1.0)
        slopes[a] = size * float(np.dot(nodal[at], slope[at]))
    return values, slopes


def _block_factors(x, lam_rate: float, sizes, rule: QuadratureRule, laguerre_family):
    """G_L(x) and dG_L/dx for each L in sizes at each abscissa of the array x.

    The kernel behind every evaluation of the gain law. Returns two
    (len(sizes), len(x)) arrays; every entry is a pure function of its own
    abscissa, so a batch gives the bits each abscissa would alone. A size-1
    block cannot select, so its factor is the exponential marginal
    1 - exp(-x / (lam + 2)) in closed form, taken with math's expm1 and
    exp (numpy's vectorised exp differs from them in the last bit for a few
    percent of arguments). Larger blocks take the split rule (_split_plan,
    _split_factors) where Gauss-Laguerre does not resolve their bracket,
    else the Laguerre sums; laguerre_family is a callable returning the
    Ncx2Family on the Gauss-Laguerre nodes, called only if some block needs
    that rule. Its slopes read the Poisson row the family kept from its CDF.
    """
    x = np.asarray(x, dtype=float)
    values = np.zeros((len(sizes), x.size))
    slopes = np.zeros_like(values)
    live = np.flatnonzero(0.5 * x > 0.0)  # elsewhere F2(x; lam) = 0, and so is its slope
    laguerre = {}
    for i, size in enumerate(sizes):
        if size == 1:
            values[i] = [-math.expm1(-v / (lam_rate + 2.0)) for v in x.tolist()]
            slopes[i] = [math.exp(-v / (lam_rate + 2.0)) / (lam_rate + 2.0) for v in x.tolist()]
            continue
        split, base, s, weights, first = _split_plan(x[live], lam_rate, size, rule.order)
        at = live[split]
        values[i, at], slopes[i, at] = _split_factors(x[at], size, base, s, weights, first)
        for a in live[~split].tolist():
            xa = float(x[a])
            if xa not in laguerre:
                family = laguerre_family()
                laguerre[xa] = family.tails(xa), family.pdf(xa)
            cdfs, dens = laguerre[xa]
            powm1 = cdfs ** (size - 1)
            values[i, a] = min(float(np.dot(rule.weights, powm1 * cdfs)), 1.0)
            slopes[i, a] = size * float(np.dot(rule.weights, powm1 * dens))
    return values, slopes


def _evaluate(dist: GainDistribution, ts) -> tuple:
    """(CDF, density) arrays of the max-port gain at the finite t > 0 of ts.

    The t not in dist's memo pass through the block factors as one batch;
    each pair is a pure function of (dist, t), remembered as one pair (see
    GainDistribution).
    """
    memo = dist._memo
    misses = [t for t in dict.fromkeys(ts) if t not in memo]
    fresh = {}
    if misses:
        sizes = dist._size_counts
        G, D = _block_factors(np.array(misses) * dist._xscale, dist._lam_rate,
                              [size for size, _ in sizes], dist.rule, lambda: dist._family)
        powers = [G[i] ** count for i, (_size, count) in enumerate(sizes)]
        cdf = np.ones(len(misses))
        density = np.zeros(len(misses))
        for i, (_size, count) in enumerate(sizes):
            cdf *= powers[i]
            term = count * D[i] * G[i] ** (count - 1)
            for j, power in enumerate(powers):
                if j != i:
                    term *= power
            density += term
        cdf = np.minimum(np.maximum(cdf, 0.0), 1.0)
        density = np.maximum(density * dist._xscale, 0.0)
        fresh = dict(zip(misses, zip(cdf.tolist(), density.tolist())))
        for t in misses[:max(_MEMO_ENTRIES - len(memo), 0)]:
            memo[t] = fresh[t]
    pairs = [memo.get(t) or fresh[t] for t in ts]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def cdf_gfas(dist: GainDistribution, t) -> float:
    """P(max-port gain <= t) under the block model."""
    t = _checked_t(t, allow_zero=True)
    if t == 0.0:
        return 0.0
    if math.isinf(t):
        return 1.0
    return float(_evaluate(dist, [t])[0][0])


def pdf_gfas(dist: GainDistribution, t) -> float:
    """Density of the max-port gain at t > 0 (the support is open at 0)."""
    t = _checked_t(t, allow_zero=False)
    if math.isinf(t):
        raise ValueError("gain argument must be finite")
    return float(_evaluate(dist, [t])[1][0])


def quantile(dist: GainDistribution, p) -> float:
    """Smallest t with cdf_gfas(dist, t) >= p, by bracketed bisection."""
    p = float(p)
    if math.isnan(p) or p < 0.0 or p >= 1.0:
        raise ValueError("quantile requires 0 <= p < 1")
    if p == 0.0:
        return 0.0
    hi = max(dist.channel_variance, 1.0)
    for _ in range(1100):
        if cdf_gfas(dist, hi) >= p:
            break
        hi *= 2.0
    else:
        raise NumericError("quantile bracket did not close; distribution mass lies beyond 1e300")
    lo = 0.0
    while hi - lo > 1e-12 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if cdf_gfas(dist, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------------
# Single-block factors, exposed for quadrature diagnostics
# ----------------------------------------------------------------------------
#
# Both routes evaluate the same latent-draw integral for one group of `size`
# ports at the reference scale sigma^2 = 2. The first uses the fixed-order
# rule of cdf_gfas, the second an adaptive subdivision with the e^(-u)
# weight written out; their disagreement measures pure quadrature error.


def _block_args(mu2, size, t):
    mu2 = float(mu2)
    if not (0.0 < mu2 < 1.0):
        raise ValueError("mu2 must lie strictly inside (0, 1)")
    if not isinstance(size, (int, np.integer)) or size < 1:
        raise ValueError("block size must be a positive integer")
    t = _checked_t(t, allow_zero=True)
    if math.isinf(t):
        raise ValueError("gain argument must be finite")
    x = t / (1.0 - mu2)
    lam_rate = 2.0 * mu2 / (1.0 - mu2)
    return x, lam_rate, int(size)


def block_cdf_factor(mu2, size, t, rule: QuadratureRule | None = None) -> float:
    """One group's CDF factor at gain level t by the fixed-order latent rule.

    rule is the Gauss-Laguerre rule; where it does not resolve the bracket
    the split rule takes over, whose panels do not depend on its order (see
    _split_plan). A size-1 group is the exponential marginal in closed form.
    """
    x, lam_rate, size = _block_args(mu2, size, t)
    if rule is None:
        rule = gauss_laguerre(32)
    factors, _ = _block_factors([x], lam_rate, [size], rule,
                                lambda: Ncx2Family(lam_rate * rule.nodes))
    return float(factors[0, 0])


def block_cdf_factor_adaptive(mu2, size, t, tol: float = 1e-10) -> float:
    """Adaptive-quadrature oracle for block_cdf_factor.

    For large size * lam the bracket's mass can sit in a layer at u = 0
    narrower than the first Gauss-Kronrod nodes of a single folded panel,
    which then report a converged but wrong value. The integral is therefore
    cut at 10^k / (size * lam), k = 0..3, the scale of that layer (not the
    split rule's edges, so the oracle stays independent of it), and each
    finite piece plus the folded tail is integrated to its share of tol.
    Cuts at u >= 1 are left out: a layer that wide is no narrower than the
    e^(-u) weight, which the folded panel resolves.
    """
    x, lam_rate, size = _block_args(mu2, size, t)

    def integrand(u):
        if u > 745.0:
            return 0.0
        return math.exp(-u) * ncx2_cdf(x, lam_rate * u) ** size

    cuts = [c for c in (10.0 ** k / (size * lam_rate) for k in range(4)) if c < 1.0]
    edges = [0.0] + cuts + [math.inf]
    pieces = [integrate_adaptive(integrand, lo, hi, tol=tol / (len(edges) - 1))
              for lo, hi in zip(edges[:-1], edges[1:])]
    if not all(res.converged for res in pieces):
        error = sum(res.error_estimate for res in pieces)
        raise NumericError(f"adaptive block factor did not converge (error estimate {error:.3e})")
    return math.fsum(res.value for res in pieces)
