"""Timing at a fixed host speed.

The CPU of a shared host changes speed by up to half within a second, as
frequency boost and neighbouring load come and go, and by as much between
runs; every timing in a run moves with it.  So the benchmark times a fixed
pure-Python reference kernel next to the work and reports

    time at nominal speed = wall time * NOMINAL_NS / kernel time nearby.

The kernel does what the toolkit does most (allocating small objects and
closures, calling through them, dict and generator traffic) and uses none
of the toolkit, so a change to the toolkit cannot move it.  Where the kernel
and the work were measured in the same spell, the ratio of their times held
within a few per cent while each alone swung by a third.
"""

from __future__ import annotations

import gc
import time

NOMINAL_NS = 1_600_000  # about the kernel's time on a quiet reference host; fixed by definition
BLOCK_NS = 100_000_000  # work timed between two kernel samples


class _Cell:
    __slots__ = ("key", "rest", "thunk")

    def __init__(self, key, rest, thunk):
        self.key, self.rest, self.thunk = key, rest, thunk


def _cells(n: int):
    rest = None
    for i in range(n):
        rest = _Cell(i, rest, lambda i=i: i + 1)
        yield rest


def kernel_ns() -> int:
    """Wall time of one run of the reference kernel, collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        table: dict = {}
        total = 0
        for c in _cells(3000):
            table[c.key & 127] = c
            total += c.thunk()
        while c is not None:
            total -= c.key
            c = c.rest
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def scale(before_ns: int, after_ns: int) -> float:
    """Factor from wall time to time at nominal speed, for work between two samples."""
    return 2 * NOMINAL_NS / (before_ns + after_ns)


def timed(fn):
    """``(fn(), its time in ns at nominal speed)``."""
    before = kernel_ns()
    t0 = time.perf_counter_ns()
    result = fn()
    wall = time.perf_counter_ns() - t0
    return result, wall * scale(before, kernel_ns())
