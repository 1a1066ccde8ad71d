"""Timing in reference seconds, steady against the host's changing speed.

On a shared host the speed of one core swings by up to 2x from one second
to the next, as other tenants load it.  So a `Meter` times a small fixed
pure-Python kernel BRACKET times just before a piece of work and BRACKET
times just after it.  The work is reported in reference seconds: its
measured time scaled by REFERENCE_KERNEL_S / (median kernel time).  That is
the work's time on a core that runs the kernel in REFERENCE_KERNEL_S.

The kernel is not run during the work: its allocations, interleaved with
the work's, raised the work's peak RSS from round to round.

This module imports nothing but `time` and `fractions`, so a fresh
interpreter can start a Meter before it starts timing its imports.
"""
import time
from fractions import Fraction

KERNEL_STEPS = 800
REFERENCE_KERNEL_S = 0.0021   # the kernel's time on an uncontended 2-vCPU Intel Xeon, Python 3.11
BRACKET = 5


def kernel():
    """Seconds of exact Fraction sums and dict inserts keyed by tuples, the
    operations the mconvex hot paths are made of."""
    start = time.perf_counter()
    total = Fraction(0)
    seen = {}
    for i in range(1, KERNEL_STEPS):
        total += Fraction(1, i % 97 + 1)
        seen[(i, i % 7)] = total.denominator
    return time.perf_counter() - start


class Meter:
    """`with Meter() as m: work()`; then `m.seconds` is the work's measured
    time and `m.factor` turns measured into reference seconds."""

    def __enter__(self):
        self.samples = [kernel() for _ in range(BRACKET)]
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._start
        self.samples += [kernel() for _ in range(BRACKET)]
        ordered = sorted(self.samples)
        self.factor = REFERENCE_KERNEL_S / ordered[len(ordered) // 2]
        return False
