"""The machine's speed, sampled while the benchmark runs.

On a shared machine the speed of one core swings by a third or more
within a second, as other tenants come and go, so the wall time of the
same work differs by 20-30 % from one run to the next.  ``SpeedProbe``
times a fixed reference kernel every 10 ms from a ``SIGALRM`` handler,
which runs in the main thread between bytecodes, so the run stays one
thread.  An interval's cost is its wall time, less the handler's own
time, divided by the mean kernel time while it ran: its duration in
reference-kernel units, from which the speed swings cancel.  Times in
reference seconds are costs times ``REFERENCE_KERNEL_S``, the kernel's
time at the nominal speed: they equal wall seconds on a machine that
holds that speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01
REFERENCE_KERNEL_S = 3e-4  # typical kernel time on the 2-vCPU Intel Xeon this was tuned on
MIN_SAMPLES = 5  # an operation shorter than this many intervals borrows its neighbours' samples
_TERMS = [Fraction(i % 7 + 1, i % 11 + 2) for i in range(64)]


def reference_kernel() -> Fraction:
    """64 exact rational multiply-adds, the same kind of work as the library's."""
    s = Fraction(0)
    for a in _TERMS:
        s += a * a
    return s


class SpeedProbe:
    """Context manager that samples the reference kernel's time while it is open."""

    def __init__(self, interval: float = INTERVAL_S, clock=time.perf_counter):
        self.interval = interval
        self.clock = clock
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0  # total time inside the handler
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        t = self.clock()
        reference_kernel()
        dt = self.clock() - t
        self.starts.append(t)
        self.durations.append(dt)
        self.spent += dt

    def net_clock(self) -> float:
        """A clock that stands still while the handler runs."""
        return self.clock() - self.spent

    def net(self, start: float, dt: float) -> float:
        """``dt`` less the time the handler took inside ``[start, start + dt]``."""
        a = bisect.bisect_left(self.starts, start)
        b = bisect.bisect_left(self.starts, start + dt)
        return dt - sum(self.durations[a:b])

    def cost(self, start: float, dt: float) -> float:
        """The net duration of ``[start, start + dt]`` in reference-kernel times."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, start + dt)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return self.net(start, dt) / statistics.fmean(self.durations[lo:hi])

    def ref_seconds(self, start: float, dt: float) -> float:
        """The net duration of ``[start, start + dt]`` in reference seconds."""
        return self.cost(start, dt) * REFERENCE_KERNEL_S
