"""Host-speed correction for wall times on a shared, noisy host.

The host this benchmark was built on runs the same pure-Python work at two
speeds some 1.5-1.9x apart, switching every few seconds to tens of seconds,
on both vCPUs; process CPU time follows wall time, so it does not help.
Raw run-to-run spreads of 15-45% follow.

A :class:`HostSpeed` sampler runs a fixed calibration loop inside the
measured process every :data:`INTERVAL` seconds (on ``SIGALRM``) and records
how long it took.  A span of wall time is reported as *host-corrected
seconds*: the measured seconds divided by
``(mean calibration time / REFERENCE_S) ** SENSITIVITY`` over that span, i.e.
the time the work would have taken had the host run at the reference speed
throughout.  The calibration loop depends on nothing the program does, so a
change to the program moves corrected and raw seconds alike.  The sampler
costs about 1% of the run, equally on every commit.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Seconds between calibration samples.
INTERVAL = 0.025
#: Calibration-loop iterations per sample.  Pure arithmetic on purpose: its
#: working set is a few objects, so its speed follows the host, not the
#: program's memory footprint (a lookup table was tried and is evicted by
#: the workload between samples, which would let a program change that
#: grows memory correct away part of its own slowdown).
LOOP = 2500
#: Calibration-loop seconds at the reference host speed (its fast state on
#: the 2-vCPU Xeon host the benchmark was built on).
REFERENCE_S = 170e-6
#: Exponent of the correction.  The log-log slope of unit time against
#: calibration time, fitted per workload, ranged from 0.7 to 1.5 and moved
#: from one hour to the next (fuzz 1.27-1.55, study 0.73-1.40, ingest
#: 0.84-1.20), so no fitted value holds; 1.0 (proportional) is wrong by the
#: least overall.
SENSITIVITY = 1.0
#: Fewest samples a correction rests on; shorter spans borrow their neighbours'.
MIN_SAMPLES = 8


def calibrate(n: int = LOOP) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


class HostSpeed:
    """In-process calibration sampler (one per process)."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.costs: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        calibrate()
        self.times.append(start)
        self.costs.append(time.perf_counter() - start)

    def start(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than at the reference speed the host ran work over
        ``[start, end]``, judged by the calibration samples in that span."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < MIN_SAMPLES:
            mid = (lo + hi) // 2
            lo = max(0, mid - MIN_SAMPLES // 2)
            hi = min(len(self.costs), lo + MIN_SAMPLES)
        if hi <= lo:
            raise RuntimeError("no host-speed samples recorded")
        return (statistics.fmean(self.costs[lo:hi]) / REFERENCE_S) ** SENSITIVITY
