"""Acceptance checklist: one test per numbered criterion.

Every test measures its criterion at the stated tolerance and runtime
budget, records a one-line summary through the ``criterion_log`` fixture,
and then asserts. One criterion fails honestly on this implementation:

* Criterion 7: at the stated deep-threshold operating point the
  selection-over-MRC outage ratio measures about 1.2e2 under the block
  model (about 6.6 on the exact channel by Monte Carlo), not 1e4. The
  collapse by almost eight orders of magnitude appears at moderate SNR
  (see the regime pins in test_metrics), just not at this configuration.

Criteria 1 and 2 failed while the latent-variable integral was a plain
order-32 Gauss-Laguerre sum, which cannot resolve the bracket at
mu2 >= 0.94; that was integration error, not model error, and the split
rule in fas_stats removed it (criterion 1 now measures about 0.011 CDF
sup and 0.030 PDF L1, criterion 2 about 8e-14 against the adaptive
oracle).

The failure is a measurement, not a loose tolerance; the module suites
pin the achieved accuracy so regressions stay visible.
"""
import math
import time
from dataclasses import replace

import numpy as np

from fblfas.channel import (
    BlockModel,
    SystemConfig,
    build_correlation,
    eigen_factor,
    fit_block_model,
)
from fblfas.fas_stats import (
    GainDistribution,
    block_cdf_factor,
    block_cdf_factor_adaptive,
    cdf_gfas,
    pdf_gfas,
    quantile,
)
from fblfas.metrics import (
    mrc_conditional_bler,
    mrc_outage,
    outage_probability,
    statistical_bler,
)
from fblfas.montecarlo import (
    empirical_gain_cdf,
    empirical_outage,
    empirical_statistical_bler,
    empirical_statistical_bler_sweep,
)
from fblfas.quadrature import gauss_laguerre, integrate_adaptive
from fblfas.specfun import marcum_q1, ncx2_cdf
from reference import ncx2_pdf, sample_channels

RULE32 = gauss_laguerre(32)


def fitted_distribution(ports, width, mu2=0.97):
    model = fit_block_model(build_correlation(ports, width), mu2)
    return GainDistribution(model=model, channel_variance=2.0, rule=RULE32)


def test_criterion_1_distribution_agreement(criterion_log):
    start = time.perf_counter()
    dist = fitted_distribution(10, 0.5)

    sup_grid = np.linspace(0.05, 40.0, 400)
    analytic = np.array([cdf_gfas(dist, float(t)) for t in sup_grid])
    ests = empirical_gain_cdf(10, 0.5, 2.0, sup_grid, samples=1_000_000, seed=101)
    sup = float(np.max(np.abs(analytic - np.array([e.value for e in ests]))))

    edges = np.linspace(0.0, 40.0, 201)
    edge_ests = empirical_gain_cdf(10, 0.5, 2.0, edges, samples=1_000_000, seed=101)
    cdf_at_edges = np.array([e.value for e in edge_ests])
    bin_width = edges[1] - edges[0]
    hist_density = np.diff(cdf_at_edges) / bin_width
    mids = 0.5 * (edges[:-1] + edges[1:])
    pdf_mid = np.array([pdf_gfas(dist, float(t)) for t in mids])
    l1 = float(np.sum(np.abs(pdf_mid - hist_density)) * bin_width)

    elapsed = time.perf_counter() - start
    ok = sup <= 0.02 and l1 <= 0.05 and elapsed <= 120.0
    criterion_log(1, "distribution agreement", ok,
                  f"cdf sup={sup:.4f} (<=0.02), pdf L1={l1:.4f} (<=0.05), "
                  f"{elapsed:.1f}s (<=120s)")
    assert elapsed <= 120.0
    assert sup <= 0.02, f"CDF sup norm {sup:.4f} exceeds 0.02"
    assert l1 <= 0.05, f"PDF L1 distance {l1:.4f} exceeds 0.05"


def test_criterion_2_quadrature_across_correlation(criterion_log):
    start = time.perf_counter()
    grid = np.linspace(0.2, 20.0, 50)
    worst, worst_mu2 = 0.0, None
    for mu2 in (0.01, 0.25, 0.81, 0.9409):
        for t in grid:
            gap = abs(block_cdf_factor(mu2, 3, float(t), rule=RULE32)
                      - block_cdf_factor_adaptive(mu2, 3, float(t)))
            if gap > worst:
                worst, worst_mu2 = gap, mu2
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= 10.0
    criterion_log(2, "fixed-order quadrature validity", ok,
                  f"max |order32 - adaptive|={worst:.3e} (<=1e-6, worst at "
                  f"mu2={worst_mu2}), {elapsed:.1f}s (<=10s)")
    assert elapsed <= 10.0
    assert worst <= 1e-6, f"worst gap {worst:.3e} at mu2={worst_mu2} exceeds 1e-6"


def test_criterion_3_quadrature_exactness(criterion_log):
    start = time.perf_counter()
    worst = 0.0
    for order in range(1, 21):
        rule = gauss_laguerre(order)
        for degree in range(2 * order):
            got = float(rule.weights @ rule.nodes ** degree)
            worst = max(worst, abs(got - math.factorial(degree)) / math.factorial(degree))
    nodes = gauss_laguerre(2).nodes
    node_err = max(abs(nodes[0] - (2.0 - math.sqrt(2.0))),
                   abs(nodes[1] - (2.0 + math.sqrt(2.0))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and node_err <= 1e-12 and elapsed <= 1.0
    criterion_log(3, "Gauss-Laguerre exactness", ok,
                  f"monomial rel err={worst:.2e} (<=1e-10), order-2 node "
                  f"err={node_err:.2e} (<=1e-12), {elapsed:.2f}s (<=1s)")
    assert elapsed <= 1.0
    assert worst <= 1e-10
    assert node_err <= 1e-12


def test_criterion_4_degenerate_closed_forms(criterion_log):
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 5, 10):
        model = BlockModel(block_sizes=(n,), mu2=1e-9)
        dist = GainDistribution(model=model, channel_variance=2.0, rule=RULE32)
        for t in (0.5, 1.0, 2.0, 5.0):
            base = 1.0 - math.exp(-t / 2.0)
            want_cdf = base ** n
            want_pdf = n * base ** (n - 1) * 0.5 * math.exp(-t / 2.0)
            worst = max(worst,
                        abs(cdf_gfas(dist, t) - want_cdf),
                        abs(pdf_gfas(dist, t) - want_pdf))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= 1.0
    criterion_log(4, "degenerate closed forms", ok,
                  f"max abs err={worst:.2e} (<=1e-6), {elapsed:.2f}s (<=1s)")
    assert elapsed <= 1.0
    assert worst <= 1e-6


def test_criterion_5_pdf_cdf_consistency(criterion_log):
    start = time.perf_counter()
    dist = fitted_distribution(10, 0.5)
    upper = quantile(dist, 1.0 - 1e-10)
    total = integrate_adaptive(lambda t: pdf_gfas(dist, t), 0.0, upper).value
    norm_err = abs(total - 1.0)

    grid = np.linspace(quantile(dist, 0.02), quantile(dist, 0.98), 20)
    h = 1e-4
    worst = 0.0
    for t in grid:
        fd = (cdf_gfas(dist, t + h) - cdf_gfas(dist, t - h)) / (2.0 * h)
        worst = max(worst, abs(fd - pdf_gfas(dist, t)) / pdf_gfas(dist, t))
    elapsed = time.perf_counter() - start
    ok = norm_err <= 1e-4 and worst <= 1e-3 and elapsed <= 30.0
    criterion_log(5, "pdf/cdf internal consistency", ok,
                  f"|integral-1|={norm_err:.2e} (<=1e-4), central-diff rel "
                  f"err={worst:.2e} (<=1e-3), {elapsed:.1f}s (<=30s)")
    assert elapsed <= 30.0
    assert norm_err <= 1e-4
    assert worst <= 1e-3


def test_criterion_6_bler_orderings(criterion_log):
    start = time.perf_counter()

    def config(ports, width):
        return SystemConfig.from_snr_db(ports=ports, antenna_length=width,
                                        users=10, blocklength=5, snr_db=20.0)

    bler_n5 = statistical_bler(config(5, 1.0), fitted_distribution(5, 1.0))
    bler_n50 = statistical_bler(config(50, 1.0), fitted_distribution(50, 1.0))
    bler_w1 = statistical_bler(config(5000, 1.0), fitted_distribution(5000, 1.0))
    bler_w025 = statistical_bler(config(5000, 0.25), fitted_distribution(5000, 0.25))
    est = empirical_statistical_bler(config(50, 1.0), samples=100_000, seed=61)
    gap = abs(bler_n50 - est.value)
    allowance = 3.0 * est.standard_error + 0.02

    elapsed = time.perf_counter() - start
    ok = (bler_n50 < bler_n5 and bler_w1 < bler_w025 and gap <= allowance
          and elapsed <= 180.0)
    criterion_log(6, "error-bound orderings", ok,
                  f"N50={bler_n50:.3e} < N5={bler_n5:.3e}; "
                  f"W1={bler_w1:.3e} < W0.25={bler_w025:.3e}; "
                  f"|analytic-mc|={gap:.4f} (<={allowance:.4f}), "
                  f"{elapsed:.0f}s (<=180s)")
    assert elapsed <= 180.0
    assert bler_n50 < bler_n5
    assert bler_w1 < bler_w025
    assert gap <= allowance


def test_criterion_7_outage_gain_magnitude(criterion_log):
    start = time.perf_counter()
    dist = fitted_distribution(500, 0.5)
    best = 0.0
    for users in range(2, 21):
        cfg = SystemConfig.from_snr_db(ports=500, antenna_length=0.5,
                                       users=users, blocklength=5,
                                       snr_db=-35.0, outage_threshold=1e-4)
        ratio = mrc_outage(1, cfg) / outage_probability(cfg, dist)
        best = max(best, ratio)
    elapsed = time.perf_counter() - start
    ok = best >= 1e4 and elapsed <= 30.0
    criterion_log(7, "selection outage-gain magnitude", ok,
                  f"best mrc/selection ratio={best:.3e} (>=1e4), "
                  f"{elapsed:.1f}s (<=30s)")
    assert elapsed <= 30.0
    assert best >= 1e4, f"best outage ratio {best:.3e} below 1e4"


def test_criterion_8_identity_suite(criterion_log):
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    xs = 10.0 ** rng.uniform(-2.0, 1.7, size=500)
    lams = 10.0 ** rng.uniform(-2.0, 1.7, size=500)
    closure = max(abs(ncx2_cdf(x, lam) + marcum_q1(math.sqrt(lam), math.sqrt(x)) - 1.0)
                  for x, lam in zip(xs, lams))
    h = 1e-5
    deriv = max(abs((ncx2_cdf(x + h, lam) - ncx2_cdf(x - h, lam)) / (2.0 * h)
                    - ncx2_pdf(x, lam))
                for x, lam in zip(xs[:200], lams[:200]))
    elapsed = time.perf_counter() - start
    ok = closure <= 1e-10 and deriv <= 1e-6 and elapsed <= 5.0
    criterion_log(8, "special-function identities", ok,
                  f"closure={closure:.2e} (<=1e-10), derivative fd={deriv:.2e} "
                  f"(<=1e-6), {elapsed:.1f}s (<=5s)")
    assert elapsed <= 5.0
    assert closure <= 1e-10
    assert deriv <= 1e-6


def test_criterion_9_determinism(criterion_log):
    factor = eigen_factor(build_correlation(10, 0.5))
    cfg = SystemConfig(ports=10, antenna_length=0.5, users=4, blocklength=5,
                       channel_variance=2.0, noise_variance=1.0,
                       outage_threshold=0.01)
    checks = {
        "sample_channels": lambda w: sample_channels(
            factor, 2.0, 70_000, seed=5, workers=w),
        "empirical_gain_cdf": lambda w: empirical_gain_cdf(
            10, 0.5, 2.0, [1.0, 5.0, 12.0], samples=70_000, seed=5, workers=w),
        "empirical_statistical_bler": lambda w: empirical_statistical_bler(
            cfg, samples=70_000, seed=5, workers=w),
        "empirical_statistical_bler over a curve": lambda w: empirical_statistical_bler_sweep(
            [cfg, replace(cfg, users=9), cfg], samples=70_000, seed=5, workers=w),
        "empirical_outage": lambda w: empirical_outage(
            cfg, samples=70_000, seed=5, workers=w),
        "mrc_conditional_bler": lambda w: mrc_conditional_bler(
            2, cfg, trials=70_000, seed=5, workers=w),
    }
    mismatched = []
    for name, run in checks.items():
        one, eight = run(1), run(8)
        if isinstance(one, np.ndarray):
            same = one.shape == eight.shape and bool(np.all(one == eight))
        else:
            same = one == eight
        if not same:
            mismatched.append(name)
    ok = not mismatched
    criterion_log(9, "worker-count determinism", ok,
                  "bit-identical across 1 and 8 workers for "
                  + ", ".join(checks) if ok
                  else "mismatch in " + ", ".join(mismatched))
    assert not mismatched, f"non-deterministic: {mismatched}"
