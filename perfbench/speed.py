"""Host-speed probe: a fixed kernel timed around and during ops.

On a 2-vCPU x86-64 VM measured for this benchmark, each vCPU flips,
every few seconds to about a minute, between a fast state and one where
everything runs about 1.5x slower; no steal counter shows it. Whole runs,
and whole sets of runs minutes apart, can land in the slow state. So the
runner samples this kernel right before and right after each op, and a
timer signal samples it every INTERVAL_S while a long op runs. An op's
time, less the samples' own time, is rescaled by REF_PROBE_S over the
mean of its samples. It then reads as seconds on the host in its fast
state, and follows the host's state far less than the raw time does.

The kernel mixes interpreted Python with small LAPACK eigensolves, as the
workloads do, and calls no capcont code. One untimed call first brings it
back into cache after the workload's own work; the best of three timed
calls follows. Without that warm-up the probe slowed with the workload's
cache footprint, up to 2x more than the ops themselves.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy

REF_PROBE_S = 1.25e-4  # best-of-three kernel time, fast state, 2-vCPU x86-64, 1 BLAS thread
INTERVAL_S = 0.25

_EIGH = numpy.linalg.eigh  # bound at import, so a tracer patching numpy does not see it
_M = numpy.cos(numpy.add.outer(numpy.arange(12.0), numpy.arange(12.0)) ** 1.5)
_M = _M + _M.T


def _kernel() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(800):
        acc += i * i % 7
    for _ in range(3):
        _EIGH(_M)
    return perf_counter() - t0


def probe_s() -> float:
    """Seconds the kernel takes on this host right now."""
    _kernel()
    return min(_kernel() for _ in range(3))


class Probe:
    """Timestamped probe samples, taken on demand and on a timer."""

    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []  # wall time each sample took
        self.values: list[float] = []
        self._busy = False  # a timer sample must not nest inside another sample

    def sample(self) -> None:
        self._busy = True
        t0 = perf_counter()
        value = probe_s()
        self.starts.append(t0)
        self.costs.append(perf_counter() - t0)
        self.values.append(value)
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.sample()

    def __enter__(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """Seconds in [start, end] without probe time, at the reference speed.

        Uses the samples inside the interval and the one on each side of it.
        """
        lo, hi = bisect_left(self.starts, start), bisect_right(self.starts, end)
        values = self.values[max(0, lo - 1):hi + 1]
        own = sum(self.costs[lo:hi])
        if not values:
            return end - start - own
        return (end - start - own) * REF_PROBE_S / statistics.fmean(values)
