import gc
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from partiality import reals, seq
from partiality.seq import PENDING, Done, Verdict
from helpers import prefix


def rationals(min_num=-30, max_num=30):
    return st.builds(
        Fraction,
        st.integers(min_num, max_num),
        st.integers(1, 30),
    )


def perturbed(q, c):
    # names the same real as const q: the gap at n is c/(n+1), inside every bound
    return lambda n: q + Fraction(c) / (n + 1)


# --- presentations ---------------------------------------------------------


@given(rationals())
def test_constant_presentations_settle(q):
    assert reals.is_cauchy_prefix(reals.const_real(q), 20)


@given(rationals(), st.sampled_from([-1, Fraction(-1, 2), 0, Fraction(1, 2), 1]))
def test_perturbed_presentations_settle_and_coincide(q, c):
    g = perturbed(q, c)
    assert reals.is_cauchy_prefix(g, 20)
    assert reals.equiv_within(reals.const_real(q), g, 40)


def test_equiv_is_violated_by_a_constant_gap():
    f = reals.const_real(Fraction(0))
    g = reals.const_real(Fraction(1))
    assert not reals.equiv_within(f, g, 10)  # n * 1 escapes [-2, 2] at n = 3
    assert reals.equiv_within(f, g, 2)


# --- the sign recurrence ---------------------------------------------------


def test_sign_of_one_latches_at_three():
    s = reals.is_positive(reals.const_real(Fraction(1)))
    assert prefix(s, 5) == [PENDING, PENDING, PENDING, Done(1), Done(1)]


def test_queries_stop_after_latching():
    calls = []

    def f(n):
        calls.append(n)
        return Fraction(1)

    s = reals.is_positive(f)
    s.at(10)
    assert calls == [1, 2, 3]


def test_zero_scan_memory_does_not_grow_with_fuel():
    # a Seq keeps O(1) state however far it is scanned
    def peak(fuel):
        gc.collect()
        tracemalloc.start()
        try:
            seq.converges_within(reals.is_positive(reals.const_real(0)), fuel)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)
    assert peak(10**4) == peak(10**5)


@given(rationals().filter(lambda q: q != 0))
def test_nonzero_sign_is_decided_within_the_analytic_bound(q):
    w = seq.converges_within(
        reals.is_positive(reals.const_real(q)),
        -((-2 * q.denominator) // abs(q.numerator)) + 1,  # ceil(2q/|p|) + 1
    )
    assert w is not None
    assert w.value == (1 if q > 0 else 0)


def test_zero_never_decides():
    s = reals.is_positive(reals.const_real(0))
    assert seq.converges_within(s, 3000) is None


def test_is_positive_cells_are_monotone_bits():
    s = reals.is_positive(reals.const_real(Fraction(-2, 7)))
    assert seq.ismon_prefix(s, 30)
    w = seq.converges_within(s, 30)
    assert w.value == 0 and s.at(w.index - 1) is PENDING


def test_sign_respects_equivalence_of_presentations():
    q = Fraction(3, 5)
    a = reals.is_positive(reals.const_real(q))
    b = reals.is_positive(perturbed(q, Fraction(1, 2)))
    assert seq.bisim_within(a, b, 64) is Verdict.TRUE


# --- parsing ---------------------------------------------------------------


def test_parse_rational_forms():
    assert reals.parse_rational("7") == 7
    assert reals.parse_rational("-7") == -7
    assert reals.parse_rational("22/7") == Fraction(22, 7)
    assert reals.parse_rational("-22/7") == Fraction(-22, 7)


@pytest.mark.parametrize("bad", ["", "1.5", "1/0", "1/-2", "x", "1 / 2", "+3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        reals.parse_rational(bad)
