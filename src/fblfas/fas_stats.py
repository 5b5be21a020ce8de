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
remainder is provably negligible (_latent_split). Either way the rule is
accurate to about 1e-10 for mu^2 up to 0.99 at the default order 32. A
size-1 group cannot select and is the exponential marginal in closed form.

The full CDF is the product of the group factors, and the density
differentiates that product term by term. Everything is evaluated on the
chi-square abscissa x = 2t / (sigma^2 (1 - mu^2)); the same factor is the
Jacobian that rescales densities back to the gain variable t.

The noncentral chi-square values at all nodes of one abscissa come from one
Ncx2Family: shared across abscissas for the fixed Laguerre nodes, built per
abscissa for the split rule, whose nodes follow the fall as x moves.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import ndtri

from .errors import NumericError
from .quadrature import QuadratureRule, gauss_laguerre, gauss_legendre, integrate_adaptive
from .specfun import Ncx2Family, ncx2_cdf
from .channel import BlockModel


@dataclass(frozen=True)
class GainDistribution:
    """Distribution of the selected-port gain for one block model.

    Immutable and safe to share across threads. Where the Gauss-Laguerre
    rule resolves a block's bracket, its per-node chi-square family is built
    lazily on first use and then reused; elsewhere the split rule places its
    nodes per abscissa (see _latent_split).

    The instance is also the unit of reuse: it remembers every value that
    cdf_gfas, pdf_gfas and quantile return for it, keyed by the float
    argument; pdf_gfas also stores the CDF it computes on the way. The
    error-bound points of a curve average over one distribution on the
    same adaptive panels of [0, upper], so they share one density per node
    and one integration limit. Values are pure functions of (instance,
    argument): a hit returns the bits a fresh evaluation would, and threads
    that miss together only compute the same value twice. Each memo stops
    growing at _MEMO_ENTRIES values and lives as long as the instance, so
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
    def _memo(self) -> tuple:
        # (cdf by t, pdf by t, quantile by p); see the class docstring.
        return {}, {}, {}


# Most values each memo of a GainDistribution keeps (1.4 MB when full).
# Every default bler-vs-* curve evaluates fewer than 700 abscissas per
# distribution; one adaptive integral that exhausts its panel budget can
# evaluate 120,000.
_MEMO_ENTRIES = 1 << 14


def _remember(memo: dict, key: float, value: float) -> float:
    if len(memo) < _MEMO_ENTRIES:
        memo[key] = value
    return value


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
# plain rule. Measured over mu2 0.1-0.9, block sizes 1-4997 and x across
# the bulk and the left tail, its relative error is below 1e-11 from 2 on
# at orders up to 64 (up to 1e-9 at orders 128-256) and near 1e-8 at 1.5.
_MIN_NODES_PER_WIDTH = 2.0
# The inner panel edges sit this many transition widths either side of the
# transition centre.
_FLANK_WIDTHS = 3.0


@lru_cache(maxsize=None)
def _panel_rule(order: int) -> QuadratureRule:
    return gauss_legendre(order)


def _latent_split(x: float, lam_rate: float, size: int, order: int):
    """Split rule for G_size(x), or None where plain Gauss-Laguerre suffices.

    Returns (base, lams, weights) with G = base + sum_i w_i F2(x; lams_i)^L:
    base is the closed-form mass below the transition, and the nodes are
    those of up to four Gauss-Legendre panels of order // 2 nodes each. x
    must be positive.
    """
    r = math.sqrt(x)
    y = 0.5 * x
    f0 = -math.expm1(-y)  # F2(x; 0), the bracket root at s = 0
    # Transition centre and width from F2(x; s^2) ~ Phi(r - s): the bracket
    # is 1/2 where 1 - F2 = 1 - 2^(-1/L).
    half = -math.expm1(-math.log(2.0) / size)
    z = -float(ndtri(half))
    width = (1.0 - half) / (size * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))
    # ln F2 is concave in the noncentrality (a Poisson transform of a
    # log-concave sequence), so its slope at 0, -y e^(-y) / (2 f0), bounds
    # the bracket by f0^L exp(-s^2 / (2 sigma0^2)).
    slope = y * math.exp(-y) / f0
    sigma0 = 1.0 / math.sqrt(size * slope) if slope > 0.0 else math.inf
    spacing = 0.5 * math.pi * math.sqrt(lam_rate / order)
    if min(width, sigma0) >= _MIN_NODES_PER_WIDTH * spacing:
        return None

    log_tol = math.log(_NEGLIGIBLE)
    # 1 - F2 <= exp(-(r - s)^2 / 2) below r, so the bracket is 1 - tol there.
    s_lo = max(0.0, r - math.sqrt(2.0 * (math.log(size) - log_tol)))
    # Beyond s_hi the bracket is below tol * f0^L by F2 <= Phi(r - s), by the
    # concavity bound, or the e^(-u) weight is below tol.
    s_hi = min(
        r - float(ndtri(math.exp(log_tol / size) * f0)),
        sigma0 * math.sqrt(-2.0 * log_tol),
        math.sqrt(-lam_rate * log_tol),
    )
    base = -math.expm1(-s_lo * s_lo / lam_rate)
    if not s_hi > s_lo:
        return base, np.empty(0), np.empty(0)
    # The two tail bounds bracket the crossing; take their midpoint. When
    # it falls below s_lo the bracket decays from s = 0 on the scale sigma0.
    centre = r - 0.5 * (z + math.sqrt(-2.0 * math.log(half)))
    if centre < s_lo:
        centre, width = s_lo, min(width, sigma0)
    flank = _FLANK_WIDTHS * width
    inner = [e for e in (centre - flank, centre, centre + flank) if s_lo < e < s_hi]
    edges = np.array([s_lo] + inner + [s_hi])
    panel = _panel_rule(max(order // 2, 1))
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    halfw = 0.5 * (edges[1:] - edges[:-1])[:, None]
    s = (mid + halfw * panel.nodes).ravel()
    # ds-weight of the e^(-u) du measure: (2 s / lam) exp(-s^2 / lam)
    weights = (halfw * panel.weights).ravel() * (2.0 * s / lam_rate) * np.exp(-s * s / lam_rate)
    return base, s * s, weights


def _tabulate(family: Ncx2Family, x: float, density: bool):
    cdfs, _ = family.tails(x)
    return cdfs, (family.pdf(x) if density else None)


def _block_factors(x: float, lam_rate: float, sizes, rule: QuadratureRule,
                   laguerre_family, density: bool):
    """G_L(x) for each L in sizes and, when density is set, dG_L/dx.

    A size-1 block cannot select, so its factor is the exponential marginal
    1 - exp(-x / (lam + 2)) in closed form. laguerre_family is a callable
    returning the Ncx2Family on the Gauss-Laguerre nodes, called only if
    some block needs that rule.
    """
    values, slopes = [], []
    laguerre = None
    for size in sizes:
        if size == 1:
            values.append(-math.expm1(-x / (lam_rate + 2.0)))
            slopes.append(math.exp(-x / (lam_rate + 2.0)) / (lam_rate + 2.0))
            continue
        if x == 0.0:
            values.append(0.0)
            slopes.append(0.0)
            continue
        plan = _latent_split(x, lam_rate, size, rule.order)
        if plan is None:
            if laguerre is None:
                laguerre = _tabulate(laguerre_family(), x, density)
            base, weights, (cdfs, dens) = 0.0, rule.weights, laguerre
        else:
            base, lams, weights = plan
            cdfs, dens = _tabulate(Ncx2Family(lams), x, density) if lams.size else (lams, lams)
        powm1 = cdfs ** (size - 1)
        values.append(min(base + float(np.dot(weights, powm1 * cdfs)), 1.0))
        if density:
            slopes.append(size * float(np.dot(weights, powm1 * dens)))
    return values, slopes


def _cdf_from_factors(dist: GainDistribution, factors) -> float:
    out = 1.0
    for factor, (_size, count) in zip(factors, dist._size_counts):
        out *= factor ** count
    return min(max(out, 0.0), 1.0)


def cdf_gfas(dist: GainDistribution, t) -> float:
    """P(max-port gain <= t) under the block model."""
    t = _checked_t(t, allow_zero=True)
    if t == 0.0:
        return 0.0
    if math.isinf(t):
        return 1.0
    memo = dist._memo[0]
    value = memo.get(t)
    if value is not None:
        return value
    sizes = [size for size, _ in dist._size_counts]
    factors, _ = _block_factors(t * dist._xscale, dist._lam_rate, sizes, dist.rule,
                                lambda: dist._family, density=False)
    return _remember(memo, t, _cdf_from_factors(dist, factors))


def pdf_gfas(dist: GainDistribution, t) -> float:
    """Density of the max-port gain at t > 0 (the support is open at 0)."""
    t = _checked_t(t, allow_zero=False)
    if math.isinf(t):
        raise ValueError("gain argument must be finite")
    cdf_memo, memo, _ = dist._memo
    value = memo.get(t)
    if value is not None:
        return value
    sizes = dist._size_counts
    G, D = _block_factors(t * dist._xscale, dist._lam_rate, [s for s, _ in sizes],
                          dist.rule, lambda: dist._family, density=True)

    total = 0.0
    for i, (_size, count) in enumerate(sizes):
        term = count * D[i] * G[i] ** (count - 1)
        for j, (_s, cj) in enumerate(sizes):
            if j != i:
                term *= G[j] ** cj
        total += term
    # the same factors give the CDF at t: statistical_bler's clamp probes
    # upper 2^-k are midpoints of its integrand's panels [0, upper 2^(1-k)]
    _remember(cdf_memo, t, _cdf_from_factors(dist, G))
    return _remember(memo, t, max(total * dist._xscale, 0.0))


def quantile(dist: GainDistribution, p) -> float:
    """Smallest t with cdf_gfas(dist, t) >= p, by bracketed bisection."""
    p = float(p)
    if math.isnan(p) or p < 0.0 or p >= 1.0:
        raise ValueError("quantile requires 0 <= p < 1")
    if p == 0.0:
        return 0.0
    memo = dist._memo[2]
    value = memo.get(p)
    if value is not None:
        return value
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
    return _remember(memo, p, 0.5 * (lo + hi))


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

    rule is the Gauss-Laguerre rule; where it does not resolve the bracket,
    its order sets the node count of the split rule instead (see
    _latent_split). A size-1 group is the exponential marginal in closed form.
    """
    x, lam_rate, size = _block_args(mu2, size, t)
    if rule is None:
        rule = gauss_laguerre(32)
    factors, _ = _block_factors(x, lam_rate, [size], rule,
                                lambda: Ncx2Family(lam_rate * rule.nodes), density=False)
    return factors[0]


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
