"""Wall-time intervals rescaled to a fixed machine speed.

The shared machine the benchmark is tuned on (2 vCPUs, x86-64) changes
speed by a third and more within seconds: consecutive processes ran the
same multiply at 0.44 s and 0.64 s per call. Every timed interval is
therefore bracketed by probes of fixed pieces of work that use no code of
the package under test, and reported as

    wall seconds * nominal probe time / (mean of the probes just before and after)

that is, in seconds at the speed at which the probe takes its nominal time.
Multiplies are scaled by ``kernel_unit``, which does the small-block work of
a blocked multiply; set-up stages by the whole probe, which adds text
parsing, a list-indexed recurrence, a vectorised pass over memory and plain
integer arithmetic. In two sets of ten 20-second runs per workload, the
spread (interquartile range over median) of raw wall medians was 5-57 %,
that of the scaled ones 1-6 % (set-up alone 4-8 %). Raw wall times are
reported next to the scaled ones.
"""

import bisect
import statistics
import time
from contextlib import contextmanager

import numpy as np

# median probe times inside benchmark runs on the 2-vCPU x86-64 machine it was tuned on
STAGE_REFERENCE_S = 0.011
KERNEL_REFERENCE_S = 0.0037
PROBE_EVERY_S = 0.2  # longest stretch of timed multiplies between two probes

_LINES = [f"{i} {7 * i % 5003} {i / 7!r}" for i in range(1, 1201)]
_KEYS = (np.arange(1_000_000) % 4999).astype(np.int32)
_VAL = np.linspace(0.5, 1.5, 64)
_X = np.linspace(-1.0, 1.0, 16)
_Y = np.zeros(8)


def kernel_unit():
    """Wall time of the small-block work of a blocked multiply: slice, reshape,
    transpose, a tiny product and an in-place add, 1200 times."""
    t0 = time.perf_counter()
    for i in range(1200):
        a = i & 31
        block = _VAL[a:a + 9].reshape(3, 3)
        acc = _Y[i & 3:(i & 3) + 3]
        acc += block.T @ _X[i & 7:(i & 7) + 3]
    return time.perf_counter() - t0


def _setup_unit():
    """Wall time of text parsing, a list-indexed recurrence, one vectorised
    pass over memory and plain integer arithmetic, about 2 ms each."""
    t0 = time.perf_counter()
    entries = []
    for line in _LINES:
        i, j, v = line.split()
        entries.append((int(i) - 1, int(j) - 1, float(v)))
    best = [0.0] * 1200
    for i in range(1198, -1, -1):
        for u in (1, 2, 3):
            cand = best[min(i + u, 1199)] + entries[i][2] * u
            if cand > best[i]:
                best[i] = cand
    np.bincount(_KEYS, minlength=4999)
    n = 0
    for i in range(22000):
        n += i * i
    return time.perf_counter() - t0


class Timer:
    """Timed intervals of one pipeline iteration and the probes around them."""

    def __init__(self):
        self.probes = []  # (midpoint, whole probe seconds, kernel_unit seconds)
        self.intervals = []  # (key, start, end, is_kernel)
        self.probe()

    def probe(self):
        t0 = time.perf_counter()
        kernel = kernel_unit()
        whole = kernel + _setup_unit()
        self.probes.append((t0 + whole / 2, whole, kernel))

    def probe_if_due(self):
        if time.perf_counter() - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probe()

    @contextmanager
    def stage(self, key):
        """Time the block as one set-up interval, then probe."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.intervals.append((key, t0, time.perf_counter(), False))
            self.probe()

    def call(self, key, fn, *args):
        """Time one multiply; the caller probes with ``probe_if_due``."""
        t0 = time.perf_counter()
        out = fn(*args)
        self.intervals.append((key, t0, time.perf_counter(), True))
        return out

    def scaled(self):
        """(key, wall seconds, scaled seconds) of every interval, in order.

        Call after a final probe, so every interval has one on each side.
        """
        mids = [p[0] for p in self.probes]
        out = []
        for key, t0, t1, is_kernel in self.intervals:
            before = self.probes[bisect.bisect_right(mids, t0) - 1]
            after = self.probes[bisect.bisect_left(mids, t1)]
            col, nominal = (2, KERNEL_REFERENCE_S) if is_kernel else (1, STAGE_REFERENCE_S)
            wall = t1 - t0
            out.append((key, wall, wall * 2 * nominal / (before[col] + after[col])))
        return out

    def factor(self):
        """Nominal over median whole-probe time: one scale for the iteration."""
        return STAGE_REFERENCE_S / statistics.median(p[1] for p in self.probes)
