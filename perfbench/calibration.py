"""Host-speed calibration for the benchmark's timings.

The shared 2-core host this benchmark was built on changes speed by a
third or more within a minute and by 2x within ten (neighbouring load: no
steal time shows in /proc/stat, the process is not descheduled, it runs
slower).  Medians inside one run cannot remove drift that lasts longer than
the run, so every timing is scaled by the host speed measured next to it.
A fixed pure-Python kernel, the bisection of the flux balance written out
here, runs between operations at most every PERIOD_S, and for operations
that last seconds also inside them from an interval timer (its own time is
then taken out of the operation's).  A time t measured while the kernel
took k ms is reported as t * REF_KERNEL_MS / k.
The kernel imports nothing from ringflux, so a change to the program cannot
move it.  Times therefore read as milliseconds or seconds on a host where
the kernel takes REF_KERNEL_MS.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import time

#: Kernel time on the reference host (Intel Xeon, 2 vCPUs) when quiet.
REF_KERNEL_MS = 1.0


def kernel_ms() -> float:
    """Time one pass of the calibration kernel, in milliseconds."""
    t0 = time.perf_counter()
    two_pi = 2.0 * math.pi
    for j in range(120):
        c, lam = 0.3 + 0.01 * j, 0.8
        a, b = -2.0, 2.0
        fa = a - c + lam * math.sin(two_pi * a)
        for _ in range(50):
            m = 0.5 * (a + b)
            fm = m - c + lam * math.sin(two_pi * m)
            if (fa < 0.0) == (fm < 0.0):
                a, fa = m, fm
            else:
                b = m
    return (time.perf_counter() - t0) * 1e3


class SpeedLog:
    """Kernel runs against the clock; scale factors for any interval."""

    #: spacing of kernel runs
    PERIOD_S = 0.1
    #: kernel runs within this distance of an interval's ends count for it
    REACH_S = 0.5

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel: list[float] = []

    def sample(self) -> None:
        self.starts.append(time.perf_counter())
        self.kernel.append(kernel_ms())
        self.ends.append(time.perf_counter())

    def tick(self) -> None:
        """Run the kernel if none ran in the last PERIOD_S."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= self.PERIOD_S:
            self.sample()

    @contextlib.contextmanager
    def running(self):
        """Run the kernel every PERIOD_S (SIGALRM; the handler runs between
        bytecodes of the main thread, and a wait in a system call resumes
        after it)."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, t0: float, t1: float) -> float:
        """Seconds of kernel runs that lie within [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return sum(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def scale(self, t0: float, t1: float) -> float:
        """REF_KERNEL_MS over the median kernel time from t0 - REACH_S to
        t1 + REACH_S (the nearest kernel run when none lies there)."""
        lo = bisect.bisect_left(self.ends, t0 - self.REACH_S)
        hi = bisect.bisect_right(self.ends, t1 + self.REACH_S)
        near = self.kernel[lo:hi]
        if not near:
            near = [self.kernel[min(lo, len(self.kernel) - 1)]]
        return REF_KERNEL_MS / statistics.median(near)
