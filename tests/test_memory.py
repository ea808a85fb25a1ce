"""One table of memory peaks, layer by layer, at 10**3 and 10**4 steps or
cells.

A row builds what it holds, then gives the call whose ``tracemalloc`` peak
is read.  A flat row's peak at 10**4 is at most its peak at 10**3 plus
4 KiB: the semantics need no memory that grows with fuel there.  A growing
row holds about sqrt(n) members, so its peak grows at most sqrt(10)-fold,
plus 4 KiB.  A linear row keeps a frame per pending call, so its peak grows
by at most its stated bytes per step, plus 4 KiB.  A defect row is a strict
xfail that names its ROADMAP item.
"""

import math
from fractions import Fraction

import pytest

from partiality import delay as D
from partiality import cpo, lang, reals, seq
from partiality.lang import OMEGA
from partiality.seq import PENDING
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


def seq_scanned(make):
    return lambda n: lambda: seq.converges_within(make(), n)


def strings():
    # a sequence that never finishes: a map over never(), whose value would be a string
    return seq.of_delay(D.map(D.never(), str))


def observe_walk(start):
    # a walk that keeps only the node it has reached, one observed layer at a time
    def row(n):
        def walk():
            d = start()
            for _ in range(n):
                d = d.observe().rest

        return walk

    return row


# each call pushes a frame for the `suc` that waits on it, so the stack grows a frame a step
GROWING_STACK = lang.parse(r"(\f. f f) (\f. suc (f f))")
GROWING_STACK_CODE = lang.compile_term(GROWING_STACK)


def held_later(n):
    # the caller holds a plain node whose step is a run's head
    d = D.later(interpreter())
    return lambda: D.run_fuel(d, n)


FLAT = {
    "run_fuel-never": fresh(D.never),
    "run_fuel-bind-over-never": fresh(lambda: D.bind(D.never(), D.now)),
    "observe-walk-evaluate-omega": observe_walk(interpreter),
    "fresh-evaluate-omega": fresh(interpreter),
    "held-evaluate-omega-asked-again": asked_again(interpreter),
    "held-execute-omega-asked-again": asked_again(vm),
    "scan-of_delay-never": scanned(D.never),
    "scan-of_delay-evaluate-omega": scanned(interpreter),
    "scan-sign-of-a-tiny-constant": sign_scanned(reals.const_real(Fraction(1, 10**30))),
    "scan-sign-of-a-zero-function": sign_scanned(lambda m: 0),
    "scan-shift": seq_scanned(lambda: seq.shift(strings())),
    "scan-unshift": seq_scanned(lambda: seq.unshift(strings())),
    "scan-bind": seq_scanned(lambda: seq.bind(strings(), seq.unit)),
    "scan-map": seq_scanned(lambda: seq.map(strings(), str)),
    "scan-join": seq_scanned(lambda: seq.join(seq.of_delay(D.map(D.never(), seq.unit)))),
    "scan-from_fn-pending": seq_scanned(lambda: seq.from_fn(lambda i: PENDING)),
    "run_fuel-to_delay-sign-of-a-zero-function": (
        lambda n: lambda: D.run_fuel(seq.to_delay(reals.is_positive(lambda m: 0)), n)),
}

GROWING = {
    "scan-lub-of-bottoms": seq_scanned(lambda: seq.lub(lambda i: seq.bottom())),
    "scan-lub-of-shifted-nevers": seq_scanned(
        lambda: seq.lub(lambda i: seq.shift(seq.of_delay(D.never())))),
    "scan-search-never-matching": seq_scanned(
        lambda: cpo.search(lambda x: False, cpo.stream_iterate(0, lambda x: x + 1))),
}

# bytes per step: about 8.5 for the interpreter's continuations, about 73 for the VM's frames
LINEAR = {
    "run-growing-stack": (12, lambda n: lambda: lang.run(GROWING_STACK, n)),
    "run_code-growing-stack": (96, lambda n: lambda: lang.run_code(GROWING_STACK_CODE, n)),
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


@pytest.mark.parametrize("row", GROWING.values(), ids=GROWING.keys())
def test_memory_grows_as_the_square_root(row):
    peak(row(10))
    small, large = peak(row(SMALL)), peak(row(LARGE))
    assert large <= math.sqrt(LARGE / SMALL) * small + SLACK, (small, large)


@pytest.mark.parametrize("per_step, row", LINEAR.values(), ids=LINEAR.keys())
def test_memory_grows_by_a_bounded_amount_per_step(per_step, row):
    peak(row(10))
    small, large = peak(row(SMALL)), peak(row(LARGE))
    assert large <= small + per_step * (LARGE - SMALL) + SLACK, (small, large)
