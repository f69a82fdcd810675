"""Machine speed from a fixed reference loop, to normalize measured times.

The benchmark runs on shared machines whose speed drifts by 10-30% over
seconds to minutes (other tenants), which moves a run's median op time far
more than most changes to the program would.  A fixed pure-Python loop of the
same kind of work as the program (small objects, dunder dispatch, float
arithmetic, min/max) slows down with it, so each timed interval is bracketed
by two runs of that loop and rescaled by their mean:

    normalized = measured * REFERENCE_S / mean(loop before, loop after)

A normalized time is the time the interval would have taken had the loop
run in REFERENCE_S.  The loop does not touch the program under test, and the
garbage collector is off while it runs, so the program's heap cannot change
its speed.
"""

from __future__ import annotations

import gc
import math
import time

# Iterations of the reference loop and its running time, in seconds, on an
# idle 2-core x86-64 sandbox with CPython 3.11; normalized times are in
# seconds of that machine.
ITERATIONS = 4000
REFERENCE_S = 0.0055


class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def __add__(self, other):
        return _Pair(self.lo + other.lo, max(self.hi, other.hi))

    def __mul__(self, other):
        p = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo,
             self.hi * other.hi)
        return _Pair(min(p), max(p))


def reference_loop():
    """Seconds taken by one run of the fixed reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = _Pair(0.0, 0.0)
        q = _Pair(0.999, 1.001)
        for i in range(ITERATIONS):
            acc = acc * q + _Pair(i * 1e-9, math.sqrt(i))
        seconds = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if not math.isfinite(acc.hi):
        raise ArithmeticError("reference loop diverged")
    return seconds


class SpeedMeter:
    """Normalizes consecutive timed intervals, each bracketed by the loop."""

    def __init__(self):
        self.last = reference_loop()
        self.loops = [self.last]

    def normalize(self, seconds):
        """Rescale an interval that ended just now; the loop ran just before it."""
        after = reference_loop()
        self.loops.append(after)
        factor = REFERENCE_S / (0.5 * (self.last + after))
        self.last = after
        return seconds * factor
