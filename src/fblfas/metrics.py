"""Finite-blocklength performance metrics.

Two families of quantities live here. The interference-union bound on the
block error rate, conditional on a channel gain and averaged over the gain
distribution, and the SINR outage probability defined through a gain
threshold t_th. Both come with conventional L-antenna maximum ratio
combining counterparts used as benchmarks: under Rayleigh fading the MRC
combined gain is Gamma(L, sigma^2), which gives the outage in closed form
and the average bounded BLER by seeded Monte Carlo.

The bound itself can exceed 1 at low gain. Probability-typed results are
clamped to [0, 1]; the raw value stays available through the *_raw variant
for tightness studies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammainc

from . import parallel
from .channel import SystemConfig
from .fas_stats import GainDistribution, cdf_gfas, pdf_gfas, quantile
from .quadrature import integrate_adaptive

# Mass of the gain distribution allowed past the truncation point of the
# averaged-bound integral.
_TAIL_MASS = 1e-10
# statistical_bler returns 1 without integrating where a lower bound on the
# average, taken at one of this many probe gains, reaches this level.
_CLAMP_PROBES = 12
_CLAMP_LEVEL = 1.0 + 1e-6


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
    weights is the one _union_bound takes.
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


def statistical_bler(config: SystemConfig, dist: GainDistribution) -> float:
    """Average of the raw union bound over the gain distribution, in [0, 1].

    The outer integral runs adaptively up to the (1 - 1e-10) gain quantile;
    the discarded tail carries at most that much probability times a bound
    value already far below it. Non-convergence of the adaptive pass is
    reported as a RuntimeWarning with the error estimate attached.

    Points whose average provably reaches 1 return 1 without integrating.
    The raw bound h decreases in the gain, so E[h(G)] >= h(t0) F(t0) for
    any t0 below the integration limit. Every block factor of F is at most
    the single-port marginal and the B blocks are independent, so
    F(t) <= (1 - exp(-t / sigma^2))^B; that screen picks the best of the
    probes t0 = upper 2^-k, k = 1..12, with no CDF call, and only where it
    reaches 1 + 1e-6 is F evaluated there. These are the low-SNR points
    whose integral of a bound near 1e5 at low gain, to the absolute
    tolerance 1e-10, cannot converge.
    """
    _check_consistent(config, dist)
    active, bound = _union_bound(config.users, config.blocklength)
    coef = 0.5 * config.codeword_variance / config.noise_variance * active

    upper = quantile(dist, 1.0 - _TAIL_MASS)
    probes = [upper * 2.0 ** -k for k in range(1, _CLAMP_PROBES + 1)]
    blocks = dist.model.block_count
    screened = [float(bound(coef * t)) * (-math.expm1(-t / dist.channel_variance)) ** blocks
                for t in probes]
    best = int(np.argmax(screened))
    if screened[best] >= _CLAMP_LEVEL:
        t0 = probes[best]
        if float(bound(coef * t0)) * cdf_gfas(dist, t0) >= _CLAMP_LEVEL:
            return 1.0

    def integrand(ts):
        return np.array([pdf_gfas(dist, t) * float(bound(coef * t)) for t in ts])

    result = integrate_adaptive(integrand, 0.0, upper, tol=1e-10)
    if 0.0 < result.value < 1e-4:
        # Small averages need relative rather than absolute control.
        result = integrate_adaptive(
            integrand, 0.0, upper, tol=max(result.value * 1e-8, 1e-290)
        )
    if not result.converged:
        warnings.warn(
            "statistical BLER integral did not converge "
            f"(error estimate {result.error_estimate:.3e})",
            RuntimeWarning,
        )
    return min(max(result.value, 0.0), 1.0)


def codeword_correlation(blocklength) -> float:
    """Average correlation sqrt(pi / (4 M)) between length-M codewords."""
    blocklength = _positive_int("blocklength", blocklength)
    return math.sqrt(math.pi / (4.0 * blocklength))


@dataclass(frozen=True)
class OutageSpec:
    """Threshold data of the SINR outage event.

    t_th is the gain level below which the SINR target gamma_th cannot be
    met; it is +inf (saturated) when interference alone already forbids the
    target for every gain.
    """

    gamma_th: float
    rho_bar: float
    t_th: float

    @property
    def saturated(self) -> bool:
        return math.isinf(self.t_th)


def outage_threshold(config: SystemConfig) -> OutageSpec:
    """Gain threshold t_th = sigma_eta^2 gamma_th / (1 - (U-1)(U rho + 1) gamma_th)."""
    rho = codeword_correlation(config.blocklength)
    gamma = config.outage_threshold
    denom = 1.0 - (config.users - 1) * (config.users * rho + 1.0) * gamma
    t_th = math.inf if denom <= 0.0 else config.noise_variance * gamma / denom
    return OutageSpec(gamma_th=gamma, rho_bar=rho, t_th=t_th)


def outage_probability(config: SystemConfig, dist: GainDistribution) -> float:
    """P(SINR < gamma_th) = F_gain(t_th); 1 when the event is saturated."""
    _check_consistent(config, dist)
    spec = outage_threshold(config)
    if spec.saturated:
        return 1.0
    return cdf_gfas(dist, spec.t_th)


def mrc_outage(branches, config: SystemConfig) -> float:
    """Outage of an L-branch MRC receiver with i.i.d. Rayleigh branches.

    The combined gain is Gamma(L, sigma^2), so the outage is the regularized
    lower incomplete gamma P(L, t_th / sigma^2).
    """
    branches = _positive_int("branches", branches)
    spec = outage_threshold(config)
    if spec.saturated:
        return 1.0
    return float(gammainc(branches, spec.t_th / config.channel_variance))


def mrc_conditional_bler(branches, config, trials, seed, workers=None):
    """Average clamped union bound over seeded Gamma(L, sigma^2) gain draws.

    Deterministic for a given seed regardless of worker count (fixed-size
    chunks with per-chunk generators, exact order-independent reduction).

    config may also be a sequence of SystemConfigs sharing channel_variance,
    for which a list of averages in the same order is returned. The gains
    depend only on (L, sigma^2, trials, seed), so a sweep over users, SNR or
    blocklength changes only the bound evaluated on them: each chunk is drawn
    once and each distinct bound (users, blocklength and the two variances)
    sums its clamped values over it, so every average equals a call with its
    config alone bit for bit.
    """
    branches = _positive_int("branches", branches)
    trials = _positive_int("trials", trials)
    single = isinstance(config, SystemConfig)
    configs = [config] if single else list(config)
    if not configs:
        raise ValueError("config must be a SystemConfig or a nonempty sequence of them")
    variance = configs[0].channel_variance
    if any(c.channel_variance != variance for c in configs):
        raise ValueError("configs must share channel_variance")
    bounds = [(c.users, c.blocklength, c.codeword_variance, c.noise_variance)
              for c in configs]
    distinct = list(dict.fromkeys(bounds))

    def task(index, size):
        rng = parallel.chunk_rng(seed, index)
        gains = rng.gamma(shape=branches, scale=variance, size=size)
        return [float(np.sum(conditional_bler(users, blocklength, gains, cv, nv)))
                for users, blocklength, cv, nv in distinct]

    partial_sums = parallel.run_chunks(task, trials, workers)
    averages = {key: math.fsum(sums[j] for sums in partial_sums) / trials
                for j, key in enumerate(distinct)}
    if single:
        return averages[bounds[0]]
    return [averages[key] for key in bounds]
