"""Host speed, sampled while the program runs, so that wall_s follows the program.

On a shared host the same call takes up to 1.7 times longer in some phases
than in others: other tenants slow the vCPU for seconds to minutes at a
time. Runs a few minutes apart then differ by a third, and no run is long
enough to average the phases out. HostClock times a fixed probe, code of
this file and not of the program, every PERIOD seconds from a SIGALRM
handler while the program runs, and scaled() expresses a stretch of the
program's time in seconds at the probe's reference speed:

    scaled = (wall - handler time inside) * mean(REFERENCE / probe time)

The mean of the probe's speed over samples spread evenly in time is the
host's mean speed over the stretch, so a stretch run at half speed counts
half. Measured on a 2-vCPU KVM guest of a shared host over 60-80 s per
workload, this cut the spread (coefficient of variation) of one pass from
0.19 to 0.054 (analytic_bler), 0.083 to 0.045 (mc_outage) and 0.126 to
0.031 (wide_aperture). The probe is a pure-Python loop and small numpy
calls: of the probes tried (also a large-array sum, a cache-sized sum, a
dict build, a float loop, a small matmul and a Poisson-weight sum like
specfun's) these two tracked the slow phases best over all workloads.

The probe runs twice and only the second run is timed. Right after the
program's own large arrays the first run took up to twice as long on cold
caches, which would have made the program's memory traffic look like a
slow host; the second run takes the same time after large arrays as after
small ones. So a change to the program moves scaled time as it moves wall
time, and the probe does not change with the program.

The handler runs in the main thread between bytecodes, so samples fall
inside the program's Python code and after long C calls; it takes about
0.25 ms, 1% of the time at PERIOD = 25 ms.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

PERIOD = 0.025
# The timed probe's time when no other tenant slows the host: its 5th
# percentile on the 2-vCPU KVM guest above. Scaled seconds read as seconds there.
REFERENCE = 0.12e-3
NEAREST = 8  # samples used for a stretch with fewer samples inside
_NODES = np.linspace(0.0, 1.0, 100)


def _probe():
    total = 0
    for i in range(2000):
        total += i * i
    for _ in range(20):
        np.exp(_NODES)


class HostClock:
    """Samples the probe's time while started; scales stretches of wall time."""

    def __init__(self):
        self.times = []  # start of each sample, increasing
        self.seconds = []  # the timed probe's time in that sample
        self.spent = []  # the handler's whole time in that sample

    def _tick(self, signum, frame):
        start = perf_counter()
        _probe()  # warms the caches the program's work has evicted
        timed = perf_counter()
        _probe()
        end = perf_counter()
        self.times.append(start)
        self.seconds.append(end - timed)
        self.spent.append(end - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        # The handler stays: a tick already due still finds it, not SIG_DFL.
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def scaled(self, start, end):
        """Seconds of [start, end] less the handler's in it, at the reference speed."""
        probes, speed = self.speed(start, end)
        return (end - start - probes) * speed

    def speed(self, start, end):
        """Handler seconds inside [start, end], and the host's mean speed over it
        relative to the reference (from the NEAREST samples if fewer are inside)."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        probes = sum(self.spent[lo:hi])
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi < len(self.times) and hi - lo < NEAREST:
                hi += 1
        if hi == lo:
            raise RuntimeError("perfbench: no host-speed samples were taken")
        return probes, sum(REFERENCE / s for s in self.seconds[lo:hi]) / (hi - lo)
