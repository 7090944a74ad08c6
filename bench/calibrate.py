"""Machine-speed sampling, so that op costs compare across a noisy shared host.

On a shared machine the same op can take twice as long from one minute to
the next, because neighbours contend for the core and its caches. A fixed
kernel with a similar mix of work (interpreted float arithmetic, numpy
scalar indexing, small objects, calls) slows down by nearly the same factor.
A SIGALRM timer runs the kernel every INTERVAL_S seconds during untraced
ops; an op's cost is its wall time, minus the kernel runs it contained,
divided by the mean kernel time around it. One "cal" is one kernel run,
about 1 ms on an idle 2.1 GHz Xeon core.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
WINDOW_S = 0.05  # kernel samples this close to an op describe its machine speed


class _Step:
    __slots__ = ("value", "scale")

    def __init__(self, value, scale):
        self.value = value
        self.scale = scale


def _step(a, b, c):
    return _Step(math.hypot(a, b) * 0.5 + c, 1)


def kernel() -> float:
    """One cal of fixed work; the result only keeps the loop from being idle."""
    d = np.linspace(1.0, 2.0, 64)
    e = np.linspace(0.5, 0.7, 64)
    s = 0.0
    for _ in range(20):
        for i in range(63):
            step = _step(d[i], e[i], s)
            s = (s + step.value) % 97.0
            d[i + 1] = d[i + 1] * 0.999 + 0.001 * step.value
    return s


class Calibrator:
    """Runs kernel() from a SIGALRM handler while active; keeps (start, seconds)."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a tick that lands inside a sample would be subtracted twice
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self):
        self._sample(None, None)  # so that even a loop shorter than INTERVAL_S has one
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def cost(self, start: float, end: float) -> tuple[float, float]:
        """(net seconds, cost in cal) of an op that ran from start to end."""
        inside = sum(d for t, d in zip(self.starts, self.durations) if start <= t <= end)
        near = [d for t, d in zip(self.starts, self.durations)
                if start - WINDOW_S <= t <= end + WINDOW_S]
        unit = statistics.fmean(near or self.durations)
        net = (end - start) - inside
        return net, net / unit
