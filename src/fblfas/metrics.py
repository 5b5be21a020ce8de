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


def conditional_bler_raw(users, blocklength, gain, codeword_variance, noise_variance):
    """Unclamped union bound at fixed gain; broadcasts over gain arrays.

    sum_{U'=1}^{U} (U'/U) exp(2 ln C(U,U') - M ln(1 + U' sigma_c^2 g / (2 sigma_eta^2)))
    where the log argument is 1 + interference_variance / (4 sigma_eta^2).
    """
    users, blocklength = _bler_params(users, blocklength, codeword_variance, noise_variance)
    g = np.asarray(gain, dtype=float)
    if g.size and (not np.all(np.isfinite(g)) or np.any(g < 0.0)):
        raise ValueError("gain must be finite and >= 0")
    active = np.arange(1, users + 1, dtype=float)
    prefix = active / users
    exponents = np.asarray(_exponent_table(users))[1:]
    z = (0.5 * codeword_variance / noise_variance) * g.reshape(-1, 1) * active
    raw = np.exp(exponents - blocklength * np.log1p(z)) @ prefix
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
    """
    _check_consistent(config, dist)
    users = config.users
    blocklength = config.blocklength
    active = np.arange(1, users + 1, dtype=float)
    prefix = active / users
    exponents = np.asarray(_exponent_table(users))[1:]
    coef = 0.5 * config.codeword_variance / config.noise_variance * active

    def integrand(t):
        bound = float(np.exp(exponents - blocklength * np.log1p(coef * t)) @ prefix)
        return pdf_gfas(dist, t) * bound

    upper = quantile(dist, 1.0 - _TAIL_MASS)
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


def mrc_conditional_bler(branches, config: SystemConfig, trials, seed, workers=None) -> float:
    """Average clamped union bound over seeded Gamma(L, sigma^2) gain draws.

    Deterministic for a given seed regardless of worker count (fixed-size
    chunks with per-chunk generators, exact order-independent reduction).
    """
    branches = _positive_int("branches", branches)
    trials = _positive_int("trials", trials)

    def task(index, size):
        rng = parallel.chunk_rng(seed, index)
        gains = rng.gamma(shape=branches, scale=config.channel_variance, size=size)
        vals = conditional_bler(
            config.users, config.blocklength, gains,
            config.codeword_variance, config.noise_variance,
        )
        return float(np.sum(vals))

    partial_sums = parallel.run_chunks(task, trials, workers)
    return math.fsum(partial_sums) / trials
