"""Timing that holds still on a shared, contended host.

On a virtual machine shared with other tenants the same op can take
anywhere from 1x to 2x its quiet time, in phases lasting seconds to
minutes; on a 2-vCPU x86-64 VM raw times of the same deterministic op
spread by about 20% (quartile distance over median) across runs a minute
apart.  ``SpeedProbe`` measures how fast the processor runs pure-Python
code while the benchmark runs: a timer signal interrupts the benchmark
every ``INTERVAL_S`` and times a fixed reference kernel (Fraction
arithmetic and dict updates, the operations splitops spends its time in,
but none of its code).

Each op's time, with the probe's own time removed, is scaled by the mean
of ``KERNEL_REF_S / k`` over the kernel times ``k`` sampled within
``WINDOW_S`` of the op.  Samples are evenly spaced in time, so that mean
times the elapsed time is the work done at the reference speed: the result
is the op's time, in seconds, on a processor that runs the kernel in
``KERNEL_REF_S`` (its time on the VM above when quiet, with CPython 3.11).
On that VM this brings the spread of the heavy ops down to 3-10%.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

KERNEL_REF_S = 0.30e-3
INTERVAL_S = 0.025
WINDOW_S = 0.25
WARM_UP_RUNS = 50


def kernel() -> int:
    """Fixed pure-Python work, independent of splitops."""
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
    table: dict = {}
    for i in range(400):
        table[(i, i % 7)] = table.get((i - 1, (i - 1) % 7), 0) + i
    return acc.denominator + len(table)


class SpeedProbe:
    """Samples the reference kernel on a timer signal while active."""

    def __init__(self):
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self.stolen = 0.0
        self._handler = None

    def _sample(self, *_):
        start = perf_counter()
        kernel()
        took = perf_counter() - start
        self.at.append(start)
        self.kernel_s.append(took)
        self.stolen += took

    def __enter__(self):
        for _ in range(WARM_UP_RUNS):  # let the interpreter specialise the kernel
            kernel()
        self.busy(2 * INTERVAL_S)  # scale() always has samples
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def clock(self) -> float:
        """perf_counter with the probe's own time taken out."""
        return perf_counter() - self.stolen

    def busy(self, seconds: float) -> None:
        """Sample back to back for ``seconds``."""
        end = perf_counter() + seconds
        while perf_counter() < end:
            self._sample()

    def scale(self, start: float, end: float) -> float:
        """Mean relative speed, KERNEL_REF_S / kernel time, near [start, end]."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        near = self.kernel_s[lo:hi]
        return statistics.fmean(KERNEL_REF_S / k for k in near)

