"""Reference clocks: job times scaled to a fixed machine speed.

The benchmark runs on a few cores of a shared host, whose speed swings by
up to a factor of two within tens of seconds as other tenants come and go.
Raw wall times then spread more between runs of the same code than any
useful regression bound.  So the run times a fixed reference kernel
between jobs, about every REF_INTERVAL_S, and reports every time scaled by
the kernel's nominal time over its median time in the samples nearest it.
A scaled time is the time the job would have taken on a machine where the
kernel takes its nominal time: about the wall time on an idle core of the
2-vCPU Xeon the benchmark was built on.

Two kernels, because work in this process and work in a fresh process
slow down differently when the host is busy:

- RefClock, for jobs run in this process: pure-Python Fraction arithmetic,
  the kind of work the library does, but none of the library's code.  Over
  10 s windows the ratio of an identify call or a k_quadrature curve to it
  moved by about 5% while their raw times moved by a factor of two.
- ProcessClock, for jobs that are processes (CLI calls, set-up, import
  times): a fresh interpreter that imports numpy and exits.  A CLI call,
  mostly interpreter start and imports, moved by about 6% against it and
  by 13-17% against the Fraction kernel.

Neither kernel calls library code, so a faster or slower library shows in
full.  The raw wall times and the samples are kept in every run record.
"""

from __future__ import annotations

import random
import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from statistics import median
from time import perf_counter

REF_INTERVAL_S = 0.1  # at most this long between samples while jobs run


def _series_inputs(n: int = 48):
    rng = random.Random(7)
    a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
    b = [Fraction(1)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)]
    return a, b


_A, _B = _series_inputs()


def kernel() -> Fraction:
    """Power-series division a/b to 48 terms: about 4 ms on an idle core."""
    q: list[Fraction] = []
    for k in range(len(_A)):
        q.append(_A[k] - sum(q[j] * _B[k - j] for j in range(k)))
    return q[-1]


def process_kernel() -> None:
    """A fresh interpreter that imports numpy: about 0.1 s on an idle core.
    It inherits the thread-pinning environment of this process."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


class RefClock:
    """Samples of the kernel's time, each stamped with its midpoint."""

    kernel = staticmethod(kernel)
    NOMINAL_S = 0.004  # the kernel's time on an idle core of the reference machine
    WARM = True  # an untimed call before each timed one
    MAX_BURST = 5  # samples taken at once after a long job
    NEAREST = 9  # samples whose median scales a job

    def __init__(self):
        self.times: list[float] = []  # midpoints, increasing
        self.durations: list[float] = []
        self._last = float("-inf")

    def sample(self, count: int = 1) -> None:
        """Time the kernel `count` times, each after an untimed warm-up call
        if WARM, so that a sample measures the machine's speed and not the
        state the last job left the caches in."""
        for _ in range(count):
            if self.WARM:
                self.kernel()
            t0 = perf_counter()
            self.kernel()
            t1 = perf_counter()
            self.times.append((t0 + t1) / 2)
            self.durations.append(t1 - t0)
            self._last = t1

    def tick(self) -> None:
        """Sample once per REF_INTERVAL_S passed since the last sample (at
        most MAX_BURST times), so that samples are about as dense in time
        around a long job as among short ones."""
        gap = perf_counter() - self._last
        if gap >= REF_INTERVAL_S:
            self.sample(min(self.MAX_BURST, int(gap / REF_INTERVAL_S)))

    def scale_at(self, t: float) -> float:
        """NOMINAL_S over the median of the NEAREST samples around t."""
        if not self.durations:
            raise ValueError("the reference clock has no samples")
        i = bisect_left(self.times, t)
        lo = max(0, min(i - self.NEAREST // 2, len(self.times) - self.NEAREST))
        return self.NOMINAL_S / median(self.durations[lo:lo + self.NEAREST])

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] in reference seconds."""
        return (t1 - t0) * self.scale_at((t0 + t1) / 2)

    def median_scale(self) -> float:
        return self.NOMINAL_S / median(self.durations)


class ProcessClock(RefClock):
    """The reference clock for work done in fresh processes."""

    kernel = staticmethod(process_kernel)
    NOMINAL_S = 0.1
    WARM = False  # the first sample of a run warms the page cache for the rest
    MAX_BURST = 1
    NEAREST = 5
