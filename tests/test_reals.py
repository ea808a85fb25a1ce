from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from partiality import reals, seq
from partiality.seq import PENDING, Done, Verdict, Witness
from helpers import peak, prefix


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


@pytest.mark.parametrize("k", [1, 2, 5, 40])  # 40: deep inside one long pull
def test_a_failing_query_is_made_once_and_cached(k):
    calls = []

    def f(n):
        calls.append(n)
        if n == k:
            raise ArithmeticError(f"no approximant at {n}")
        return Fraction(0)

    s = reals.is_positive(f)
    with pytest.raises(ArithmeticError) as raised:
        seq.converges_within(s, 50)
    assert calls == list(range(1, k + 1))
    with pytest.raises(ArithmeticError) as again:
        s.at(k + 3)
    assert again.value is raised.value
    assert calls == list(range(1, k + 1))
    assert s.at(k - 1) is PENDING  # the cells before the failing one stay readable


def test_zero_scan_memory_does_not_grow_with_fuel():
    # a Seq keeps O(1) state however far it is scanned
    def scan_peak(fuel):
        return peak(lambda: seq.converges_within(reals.is_positive(reals.const_real(0)), fuel))

    scan_peak(10)
    assert scan_peak(10**4) == scan_peak(10**5)


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


def test_the_zero_constant_gives_the_verdicts_of_the_query_loop():
    # not bottom(), whose identity would make the first verdict a structural TRUE
    for zero in (reals.is_positive(reals.const_real(0)), reals.is_positive(lambda n: 0)):
        assert zero is not seq.bottom()
        assert seq.leq_within(zero, seq.unit(1), 10**4) is Verdict.UNKNOWN
        assert seq.bisim_within(zero, seq.bottom(), 10**4) is Verdict.UNKNOWN


def test_bisim_of_the_zero_constant_asks_the_other_presentation_nothing():
    queries = []

    def g(n):  # the zero real too, so its sign stays pending at every index
        queries.append(n)
        return Fraction(1, n + 1)

    zero = reals.is_positive(reals.const_real(0))
    assert seq.bisim_within(zero, reals.is_positive(g), 10**4) is Verdict.UNKNOWN
    assert len(queries) == 0


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


# --- integer bounds against the Fraction formulas ---------------------------
#
# The module decides each bound on a value's integer ratio.  These oracles are
# the plain Fraction forms of the same bounds, written out here.


def sign_cell_oracle(f, n):
    return PENDING if n == 0 or -2 <= n * f(n) <= 2 else Done(int(n * f(n) > 0))


# The law oracles read each value as Fraction(x), which is exact for an int or
# a float, so no float subtraction ever decides them.


def cauchy_oracle(f, n):
    v = [Fraction(f(i)) for i in range(n + 1)]
    return all(-1 < m * (v[m] - v[k]) < 1 for m in range(1, n + 1) for k in range(m + 1, n + 1))


def equiv_oracle(f, g, fuel):
    return all(-2 <= n * (Fraction(f(n)) - Fraction(g(n))) <= 2 for n in range(fuel + 1))


def presentations(gaps):
    return st.one_of(
        st.tuples(st.just("const"), rationals()),
        st.tuples(st.just("perturbed"), rationals(), st.sampled_from(gaps)),
        # |k * q| = 2 exactly: cell k is the last pending one
        st.tuples(st.just("boundary"), st.sampled_from([-2, 2]), st.integers(1, 39)),
    )


GAPS = [-1, Fraction(-1, 2), 0, Fraction(1, 2), 1]
PRESENTATIONS = presentations(GAPS)
# gaps of 3/(n+1) break the settling rate, so the laws see both verdicts;
# int- and float-valued presentations are read exactly too
LAW_INPUTS = st.one_of(
    presentations(GAPS + [-3, 3]),
    st.tuples(st.just("int"), st.integers(-4, 4), st.sampled_from([-3, -1, 0, 1, 3])),
    st.tuples(st.just("float"), rationals(), st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])),
)


def presentation(t):
    if t[0] == "const":
        return reals.const_real(t[1])
    if t[0] == "perturbed":
        return perturbed(t[1], t[2])
    if t[0] == "int":
        # int values: k, then k + c from index 2 on
        return lambda n, k=t[1], c=t[2]: k + c if n >= 2 else k
    if t[0] == "float":
        return lambda n, x=float(t[1]), c=t[2]: x + c / (n + 1)
    return reals.const_real(Fraction(t[1], t[2]))


INTEGER_BOUNDS = settings(derandomize=True, deadline=None, max_examples=150)


@INTEGER_BOUNDS
@given(PRESENTATIONS)
def test_is_positive_agrees_with_the_fraction_formula(t):
    f = presentation(t)
    calls = []

    def counted(n):
        calls.append(n)
        return f(n)

    expected = [sign_cell_oracle(f, n) for n in range(41)]
    assert prefix(reals.is_positive(counted), 41) == expected
    latch = next((n for n, c in enumerate(expected) if c is not PENDING), 40)
    assert calls == list(range(1, latch + 1))
    # one pull of 40 cells makes the same queries and finds the same witness
    calls.clear()
    w = seq.converges_within(reals.is_positive(counted), 40)
    assert w == (None if expected[latch] is PENDING else Witness(expected[latch].value, latch))
    assert calls == list(range(1, latch + 1))
    if t[0] == "boundary":
        k = t[2]
        assert expected[k] is PENDING and expected[k + 1] == Done(int(t[1] > 0))


@INTEGER_BOUNDS
@given(LAW_INPUTS, LAW_INPUTS, st.integers(0, 20))
def test_laws_agree_with_the_fraction_formulas(a, b, n):
    f, g = presentation(a), presentation(b)
    assert reals.is_cauchy_prefix(f, n) == cauchy_oracle(f, n)
    assert reals.equiv_within(f, g, 2 * n) == equiv_oracle(f, g, 2 * n)


def test_the_laws_ask_each_value_once_in_order():
    calls = []

    def asked(name, h):
        def query(n):
            calls.append((name, n))
            return h(n)

        return query

    f, g = asked("f", reals.const_real(0)), asked("g", reals.const_real(1))
    # equiv_within asks f(n), g(n) index by index and stops at the first failing
    # index, 3, where 3 * 1 > 2
    assert not reals.equiv_within(f, g, 10)
    assert calls == [(name, n) for n in range(4) for name in "fg"]
    calls.clear()
    assert reals.equiv_within(f, g, 2)
    assert calls == [(name, n) for n in range(3) for name in "fg"]
    # is_cauchy_prefix asks f(0) .. f(n) once each, in order, then compares
    for h, holds in [(reals.const_real(Fraction(1, 3)), True), (lambda n: n, False)]:
        calls.clear()
        assert reals.is_cauchy_prefix(asked("f", h), 6) is holds
        assert calls == [("f", n) for n in range(7)]


def test_the_laws_read_float_values_exactly():
    # 2.0 - (-2**-60) rounds to 2.0 as a float; the exact gap is over 2
    tiny = 2.0**-60
    assert not reals.equiv_within(lambda n: 2.0, lambda n: -tiny, 1)
    assert reals.equiv_within(lambda n: 2.0, lambda n: 0.0, 1)
    # 1.0 - 2**-60 rounds to 1.0 as a float; the exact gap is under 1
    assert reals.is_cauchy_prefix(lambda n: 1.0 if n == 1 else tiny, 2)
    assert not reals.is_cauchy_prefix(lambda n: 1.0 if n == 1 else 0.0, 2)


@pytest.mark.parametrize("n", [1, 2, 7, 40])
@pytest.mark.parametrize("sign", [-1, 1])
def test_equiv_accepts_a_gap_of_exactly_two_over_n(n, sign):
    f = reals.const_real(0)
    gap = sign * Fraction(2, n)
    assert reals.equiv_within(f, lambda i: gap if i == n else 0, n + 3)
    over = gap + sign * Fraction(1, 10**9)
    assert not reals.equiv_within(f, lambda i: over if i == n else 0, n + 3)


@pytest.mark.parametrize("sign", [-1, 1])
def test_cauchy_rejects_a_settling_gap_of_exactly_one(sign):
    # at m = 3, k = 4: m * (f(3) - f(4)) = sign exactly
    assert not reals.is_cauchy_prefix(lambda i: Fraction(sign, 3) if i == 3 else 0, 5)
    under = sign * (Fraction(1, 3) - Fraction(1, 10**9))
    assert reals.is_cauchy_prefix(lambda i: under if i == 3 else 0, 5)


def test_equiv_rejects_negative_fuel():
    with pytest.raises(ValueError):
        reals.equiv_within(reals.const_real(1), reals.const_real(1), -1)


def test_equiv_checks_fuel_as_run_fuel_does_before_any_query():
    def f(n):
        raise AssertionError("queried")

    for fuel in (-1.5, 2.0):
        with pytest.raises(TypeError):
            reals.equiv_within(f, f, fuel)
    with pytest.raises(ValueError, match=r"^negative fuel: -1$"):
        reals.equiv_within(f, f, -1)


def test_float_and_int_valued_reals():
    half = seq.converges_within(reals.is_positive(lambda n: 0.5), 10)
    assert half == Witness(1, 5)
    assert half == seq.converges_within(reals.is_positive(reals.const_real(Fraction(1, 2))), 10)
    assert seq.converges_within(reals.is_positive(lambda n: 1), 10) == Witness(1, 3)


# --- each value object's ratio is read once ---------------------------------


class CountedFraction(Fraction):
    # a Fraction that logs each read of its ratio
    reads = None

    def as_integer_ratio(self):
        CountedFraction.reads.append(self)
        return super().as_integer_ratio()


@pytest.fixture
def reads():
    CountedFraction.reads = []
    yield CountedFraction.reads
    CountedFraction.reads = None


@pytest.mark.parametrize(
    "q, witness",
    [(0, None), (Fraction(1, 3000), Witness(1, 6001)), (Fraction(-1, 3000), Witness(0, 6001))],
    ids=["zero", "plus", "minus"],
)
def test_a_repeated_value_is_read_once_over_many_pulls(reads, q, witness):
    x = CountedFraction(q)
    s = reals.is_positive(lambda n: x)
    for n in [1, 10, 100, 2500, 6000]:
        assert seq.converges_within(s, n) is None
    assert s.at(2500) is PENDING
    assert seq.converges_within(s, 10**4) == witness
    assert s.at(10**4) == (PENDING if witness is None else Done(witness.value))
    assert reads == [x]


def test_fresh_equal_values_are_read_at_every_query(reads):
    calls = []

    def f(n):
        calls.append(n)
        return CountedFraction(1, 100)

    s = reals.is_positive(f)
    assert seq.converges_within(s, 50) is None
    assert seq.converges_within(s, 500) == Witness(1, 201)
    assert calls == list(range(1, 202))
    assert len(reads) == 201


@INTEGER_BOUNDS
@given(rationals(), rationals(), st.lists(st.integers(1, 40), max_size=4))
def test_alternating_value_objects_give_the_fraction_formula(a, b, pulls):
    f = lambda n: a if n % 2 else b
    s = reals.is_positive(f)
    for n in pulls:
        s.at(n)
    # the oracle's cells up to the first done one, which holds from there on
    cells = [sign_cell_oracle(f, n) for n in range(41)]
    latch = next((n for n, c in enumerate(cells) if c is not PENDING), 41)
    assert prefix(s, 41) == cells[:latch] + cells[latch:latch + 1] * (41 - latch)


def test_a_none_value_raises_the_error_of_reading_it():
    error = "^'NoneType' object has no attribute 'as_integer_ratio'$"
    with pytest.raises(AttributeError, match=error):
        reals.is_positive(lambda n: None).at(1)
    s = reals.is_positive(lambda n: None if n == 2 else 0)
    assert s.at(1) is PENDING
    with pytest.raises(AttributeError, match=error):
        s.at(2)


# --- const_real in closed form ----------------------------------------------
#
# is_positive reads a const_real once and answers its cells in closed form; any
# other function, here one that returns the same Fraction object, is queried
# index by index.  Both must give the same cells, however they are read.

BIG = 10**4400 - 1  # 4 400 digits
CONSTANTS = {
    "zero": 0, "one": 1, "minus-one": -1, "22/7": Fraction(22, 7), "1/3": Fraction(1, 3),
    "-1/3": Fraction(-1, 3), "int": 5, "float": 0.1, "tiny": Fraction(1, 10**20), "-tiny": Fraction(-1, 10**20),
    "big/7": Fraction(BIG, 7), "-7/big": Fraction(-7, BIG), "big/(big+2)": Fraction(BIG, BIG + 2),
    "-(big+2)/big": Fraction(-BIG - 2, BIG),
}


def _read(s, idxs, way):
    # the cells at idxs in ascending order: at once, after one converges_within to the last, or after it is pulled
    ahead = [] if way == "ascending" else [seq.converges_within(s, idxs[-1]) if way == "converges" else s.at(idxs[-1])]
    return ahead + [s.at(n) for n in idxs]


@pytest.mark.parametrize("way", ["ascending", "converges", "far"])
@pytest.mark.parametrize("q", CONSTANTS.values(), ids=CONSTANTS.keys())
def test_const_real_gives_the_cells_of_the_query_loop(q, way):
    x = Fraction(q)
    closed = lambda: reals.is_positive(reals.const_real(q))
    loop = lambda: reals.is_positive(lambda n, x=x: x)
    p, d = x.as_integer_ratio()
    w = 2 * d // abs(p) + 1 if p else None  # the least witness, if any
    idxs = list(range(w + 4 if w and w <= 10**4 else 64))  # through the witness + 3, or 64 cells
    assert _read(closed(), idxs, way) == _read(loop(), idxs, way)
    if w and w > 10**4:  # past the loop's reach: the per-index formula at the witness and on either side
        near = [w - 1, w, w + 1]
        cells = [sign_cell_oracle(lambda n: x, n) for n in near]
        assert cells[0] is PENDING and cells[1] == cells[2] == Done(int(p > 0))
        assert _read(closed(), near, way)[-3:] == cells


def test_const_real_is_answered_without_a_query_per_cell():
    f = reals.const_real(Fraction(1, 10**30))
    assert f(0) is f(10**40) and type(f(1)) is Fraction  # one Fraction object at every index
    assert seq.converges_within(reals.is_positive(f), 10**40) == Witness(1, 2 * 10**30 + 1)
    assert seq.converges_within(reals.is_positive(reals.const_real(0)), 10**40) is None
    # a function that wraps a const_real is queried at each index up to the witness
    calls, third = [], reals.const_real(Fraction(1, 3))
    s = reals.is_positive(lambda n: calls.append(n) or third(n))
    assert seq.converges_within(s, 100) == Witness(1, 7)
    assert calls == list(range(1, 8))


# --- parsing ---------------------------------------------------------------


def test_parse_rational_forms():
    assert reals.parse_rational("7") == 7
    assert reals.parse_rational("-7") == -7
    assert reals.parse_rational("22/7") == Fraction(22, 7)
    assert reals.parse_rational("-22/7") == Fraction(-22, 7)


@pytest.mark.parametrize("bad", ["", "1.5", "1/0", "1/-2", "x", "1 / 2", "+3", "1\n", "-3/2\n"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        reals.parse_rational(bad)
