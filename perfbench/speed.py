"""Machine-speed reference for the benchmark's timings.

The machines this benchmark runs on are shared: the same code runs up to
1.6 times slower for seconds to minutes at a time, when other tenants load
the host, so whole runs of unchanged code can differ by a third.  A run
therefore also times a fixed chunk of reference work, in the same
process and closed loop, before every set-up probe and before every
operation (or every few short ones), and divides its mean times by the
slowdown: the mean time of one reference unit over the same stretch of
the run, over ``UNIT_S``.  A unit is interpreted float arithmetic, calls
and a small dict, then numpy ufuncs on a short array, as in esfi's own
code.

Means on both sides, because a run can spend any share of its time in
the fast or the slow state, and a mean weighs the states by that share
where a median picks the commoner one.  ``UNIT_S`` is the median on the
development machine (see README.md), so reported times read close to
wall times there.  The raw wall times and the readings go to the run
record beside them.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

UNIT_S = 54e-6  # one unit on the development machine, median

_GRID = np.linspace(1.0, 2.0, 64)


def _unit() -> float:
    acc = 0.0
    seen = {}
    for i in range(200):
        x = i * 0.37 + 1.0
        acc += math.sqrt(x) / x
        seen[i & 15] = acc
    return acc + float(np.sum(np.exp(-_GRID) / _GRID))


class Meter:
    """Reference chunks timed through one run, each per unit over UNIT_S."""

    def __init__(self):
        self.readings = []

    def chunk(self, units: int) -> None:
        _unit()  # untimed: refills the caches the work before it used
        t0 = time.perf_counter()
        for _ in range(units):
            _unit()
        self.readings.append((time.perf_counter() - t0) / (units * UNIT_S))

    def slowdown(self) -> float:
        """How much slower than the development machine the run went."""
        return statistics.fmean(self.readings)
