"""Machine-speed calibration for runs on shared hardware.

On a shared host the same code runs up to 1.7 times slower or faster from
one quarter second to the next, so raw wall times of runs minutes apart
disagree by more than any useful regression bound.  The benchmark therefore
runs a short fixed reference kernel 32 times a second while it sets up and
while it times ops, takes the kernel's time out of those times, and scales
each op, and the set-up, to the reference speed, the speed at which the
kernel takes REF_MS:

    reference time = wall time * REF_MS / (mean kernel time around the op)

where the kernel times around an op are those sampled during it plus the
last one before it and the first one after it.  The kernel never changes, so
a slower or faster program still moves the scaled figures one for one; only
the host's speed cancels.  Its mix mirrors the program's: 0-d numpy calls
and float math like the scalar solve path, plus small array reductions like
the oracle's power boxes.  Raw wall times are printed next to the scaled
ones.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

REF_MS = 2.5
_ITERATIONS = 125


def kernel() -> float:
    """Fixed work; about REF_MS on an uncontended 2.1 GHz x86-64 core."""
    acc = 0.0
    for i in range(_ITERATIONS):
        x = np.asarray(i * 1e-3, dtype=float)
        if np.any(x < 0.0) or not np.all(np.isfinite(x)):
            raise ValueError("kernel input out of range")
        y = float(np.clip(x, 0.0, 5.0))
        acc += math.sqrt(y * 2.0) / 0.35 + 2.0 ** (y / 7.0)
        if i % 8 == 0:
            grid = np.linspace(0.0, y + 1.0, 480).reshape(40, 12)
            acc += float(np.min(np.where(grid > y, grid, 9.0)))
    return acc


class Calibration:
    """Kernel runs, as (start ns, end ns), in run order.

    While started, an interval timer runs the kernel every ``interval``
    seconds of wall time from a SIGALRM handler, so even a many-second op
    is sampled while it runs; ``paused_ns`` tells how much of a timed span
    the handler took, which the caller subtracts.
    """

    def __init__(self):
        self.runs: list[tuple[int, int]] = []
        self._previous = None
        self._running = False

    def _sample(self) -> None:
        t0 = time.perf_counter_ns()
        kernel()
        self.runs.append((t0, time.perf_counter_ns()))

    def _on_alarm(self, signum, frame) -> None:
        if self._running:
            return  # a kernel slower than the interval is still running
        self._running = True
        try:
            self._sample()
        finally:
            self._running = False

    def start(self, interval: float) -> None:
        """Sample now, then every ``interval`` seconds until stop(), which
        samples once more: every span timed in between has a sample on
        each side."""
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def paused_ns(self, t0: int, t1: int) -> int:
        """Handler time inside [t0, t1]."""
        paused = 0
        for start, end in reversed(self.runs):
            if end <= t0:
                break
            paused += max(0, min(end, t1) - max(start, t0))
        return paused

    def scales(self, spans: list[tuple[int, int]]) -> list[float]:
        """The scale for each span (t0, t1) timed while started: from the
        kernel runs inside it and the one on each side of it."""
        starts = [start for start, _ in self.runs]
        out = []
        for t0, t1 in spans:
            first = max(0, bisect.bisect_right(starts, t0) - 1)
            last = bisect.bisect_left(starts, t1) + 1
            out.append(_scale(self.runs[first:last]))
        return out


def _scale(runs: list[tuple[int, int]]) -> float:
    return REF_MS * 1e6 / statistics.fmean(end - start for start, end in runs)
