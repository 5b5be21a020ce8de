"""Seeded CLI workloads for the fblfas benchmark.

A workload is a list of `fblfas` CLI calls, a pass, which the benchmark
repeats until its time is up. A sweep over a real range takes k values,
one from the middle of each of k equal strata; the seed moves all of them
by up to SHIFT of a stratum and picks the Monte Carlo stream (the CLI's
--seed). A sweep over user counts takes the stratum midpoints rounded down
and is not moved: a shift would only flip a count by one. The shift is
small and every pass keeps the same sweep values on purpose: the cost of
an error-bound point jumps with the number of adaptive panels it needs
(from 375 to 930 integrand calls between 24.7 and 24.8 dB at N = 50), so
values drawn anywhere in the range, or new values in every pass, made
wall_s differ by a quarter between seeds and between passes; within
0.1 dB of the midpoints used here the count moves by at most 6%. Pass j
still differs from the others: its Monte Carlo seed is the workload's plus
j and every aperture width is scaled by 1 + j * WIDEN, so nothing one pass
computes (a channel draw, a correlation matrix, a block fit) can be reused
by the next. A user runs each sweep in a fresh process and gets no such
reuse either.

Why each workload exists, and which layer it stresses:

analytic_bler
    Error-bound sweeps over two SNR values in [10, 30] dB at N = 5 and 1000
    and over two user counts in [1, 20] at N = 50; no Monte Carlo
    overlay. Almost all time is in metrics.statistical_bler ->
    quadrature.integrate_adaptive -> fas_stats.pdf_gfas -> specfun.
    Unmeasured on purpose: SNR below 10 dB. Points with N >= 50 at
    SNR <= 2 dB, and N = 1000 at SNR <= 6 dB, take 63-97 s each, make about
    120,000 pdf calls and do not converge; that is too slow to repeat in
    every run.
mc_outage
    Outage sweep over two user counts in [2, 20] at N = 50 and 200 with a
    65,536-draw Monte Carlo overlay, plus the N = 10 gain distribution.
    Time is in the montecarlo draws (the eigen-factor matmul, chunked by
    parallel); the analytic side only calls cdf_gfas.
wide_aperture
    Error bound at N = 2500 for one aperture width in [0.25, 1], and at
    N = 500, 1000, 2000. Time is in channel.fit_block_model, the dense
    eigensolve; the analytic points are cheap at 20 dB.

Passes are kept to about four seconds, so that a run of 40 seconds, set-up
probes included, holds six passes or more for wall_s's median: hence each
port count in one sweep only, 65,536 draws instead of 131,072, and
N = 2500 instead of 4000 (2.2 s per eigensolve on one BLAS thread, 11 s
for the whole N = 4000 call).

The "tiny" size runs the same commands on small inputs; it is the warm-up
before timing and the smoke test's input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("analytic_bler", "mc_outage", "wide_aperture")
SIZES = ("full", "tiny")

SHIFT = 0.01
WIDEN = 1e-4


@dataclass(frozen=True)
class Call:
    """One CLI invocation: a subcommand and its options, in argv order."""

    command: str
    options: tuple  # ((flag without "--", value string), ...)

    def argv(self) -> list:
        out = [self.command]
        for flag, value in self.options:
            out += [f"--{flag}", value]
        return out

    def opt(self, flag, default=None):
        for name, value in self.options:
            if name == flag:
                return value
        return default


class Workload:
    """One workload's calls, generated from a seed; calls(j) is pass j."""

    def __init__(self, name, seed, size="full"):
        self._name = name
        self._tiny = size == "tiny"
        self._rng = np.random.default_rng([int(seed), WORKLOADS.index(name)])
        self._mc_seed = int(self._rng.integers(1, 2**31 - 1))
        k = 1 if self._tiny else 2
        if name == "analytic_bler":
            self._snr = self._sweep(10.0, 30.0, k)
            self._users = self._counts(1, 20, k)
        elif name == "mc_outage":
            self._users = self._counts(2, 20, k)
        else:
            self._widths = self._sweep(0.25, 1.0, 1)

    def _sweep(self, lo, hi, k):
        shift = SHIFT * (2.0 * self._rng.random() - 1.0)
        return [lo + (hi - lo) * (i + 0.5 + shift) / k for i in range(k)]

    @staticmethod
    def _counts(lo, hi, k):
        return [int(lo + (hi - lo) * (i + 0.5) / k) for i in range(k)]

    def calls(self, j):
        """Calls of pass j; the same (seed, j) always gives the same calls."""
        return getattr(self, "_" + self._name)(j)

    def _seed(self, j):
        return (("seed", str(self._mc_seed + j)),)

    @staticmethod
    def _width(w, j):
        return f"{w * (1.0 + j * WIDEN):.6g}"

    def _mrc(self):
        return (("mrc-trials", "1000"),) if self._tiny else ()

    def _analytic_bler(self, j):
        tiny = self._tiny
        return [
            Call("bler-vs-snr", (("ports", "5" if tiny else "5,1000"),
                                 ("snr-db", ",".join(f"{v:.2f}" for v in self._snr)),
                                 ("width", self._width(0.5, j)), ("users", "10"),
                                 ("blocklength", "5")) + self._seed(j) + self._mrc()),
            Call("bler-vs-u", (("ports", "5" if tiny else "50"),
                               ("users", ",".join(map(str, self._users))),
                               ("width", self._width(1.0, j)), ("snr-db", "20"),
                               ("blocklength", "5")) + self._seed(j) + self._mrc()),
        ]

    def _mc_outage(self, j):
        samples = "2000" if self._tiny else "65536"
        return [
            Call("op-vs-u", (("ports", "10" if self._tiny else "50,200"),
                             ("users", ",".join(map(str, self._users))),
                             ("width", self._width(0.5, j)), ("snr-db", "-35"),
                             ("gamma-th", "0.0001"), ("blocklength", "5"), ("sigma2", "2"),
                             ("mc-samples", samples)) + self._seed(j)),
            Call("dist", (("ports", "10"), ("width", self._width(0.5, j)), ("samples", samples),
                          ("t-points", "20" if self._tiny else "200")) + self._seed(j)),
        ]

    def _wide_aperture(self, j):
        tiny = self._tiny
        return [
            Call("bler-vs-w", (("ports", "100" if tiny else "2500"),
                               ("widths", ",".join(self._width(w, j) for w in self._widths)),
                               ("snr-db", "20"), ("users", "10"), ("blocklength", "5"))
                 + self._seed(j) + self._mrc()),
            Call("bler-vs-n", (("ports", "50" if tiny else "500,1000,2000"),
                               ("width", self._width(1.0, j)), ("snr-db", "20"), ("users", "10"),
                               ("blocklength", "5")) + self._seed(j) + self._mrc()),
        ]
