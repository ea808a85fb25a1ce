"""One table of memory peaks, layer by layer, at 10**3 and 10**4 steps or
cells.

A row builds what it holds, then gives the call whose ``tracemalloc`` peak
is read.  A flat row's peak at 10**4 is at most its peak at 10**3 plus
4 KiB: the semantics need no memory that grows with fuel there.  A defect
row is a strict xfail that names its ROADMAP item.
"""

from fractions import Fraction

import pytest

from partiality import delay as D
from partiality import lang, reals, seq
from partiality.lang import OMEGA
from helpers import peak

SMALL, LARGE = 10**3, 10**4
SLACK = 4096


def interpreter():
    return lang.evaluate(OMEGA)


def vm():
    return lang.execute(lang.compile_term(OMEGA))


# A row takes n and returns the call to measure at n.


def fresh(start):
    return lambda n: lambda: D.run_fuel(start(), n)


def asked_again(start):
    # a head the caller holds, asked once at n outside the peak, then at 2n
    def row(n):
        d = start()
        D.run_fuel(d, n)
        return lambda: D.run_fuel(d, 2 * n)

    return row


def scanned(start):
    return lambda n: lambda: seq.converges_within(seq.of_delay(start()), n)


def sign_scanned(f):
    return lambda n: lambda: seq.converges_within(reals.is_positive(f), n)


def held_later(n):
    # the caller holds a plain node whose step is a run's head
    d = D.later(interpreter())
    return lambda: D.run_fuel(d, n)


FLAT = {
    "run_fuel-never": fresh(D.never),
    "fresh-evaluate-omega": fresh(interpreter),
    "held-evaluate-omega-asked-again": asked_again(interpreter),
    "held-execute-omega-asked-again": asked_again(vm),
    "scan-of_delay-never": scanned(D.never),
    "scan-of_delay-evaluate-omega": scanned(interpreter),
    "scan-sign-of-a-tiny-constant": sign_scanned(reals.const_real(Fraction(1, 10**30))),
    "scan-sign-of-a-zero-function": sign_scanned(lambda m: 0),
}

DEFECTS = {
    "held-later-evaluate-omega": (
        16, "a step node met partway through a walk is stepped one kept node at a time",
        held_later,
    ),
}


ROWS = [pytest.param(row, id=name) for name, row in FLAT.items()] + [
    pytest.param(row, id=name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"ROADMAP item {item}: {why}"))
    for name, (item, why, row) in DEFECTS.items()
]


@pytest.mark.parametrize("row", ROWS)
def test_memory_is_flat(row):
    peak(row(10))  # warms the caches and free lists that a first call fills
    small, large = peak(row(SMALL)), peak(row(LARGE))
    assert large <= small + SLACK, (small, large)
