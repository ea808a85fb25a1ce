import weakref

import pytest

from partiality import cpo, seq
from partiality.seq import ChainViolationError, Verdict, Witness
from helpers import prefix


def test_streams_memoize_their_tails():
    calls = []

    def step(x):
        calls.append(x)
        return x + 1

    xs = cpo.stream_iterate(0, step)
    assert cpo.stream_prefix(xs, 4) == [0, 1, 2, 3]
    cpo.stream_prefix(xs, 4)
    assert calls == [0, 1, 2]


def test_a_forced_tail_frees_what_its_thunk_captured():
    class Held:
        pass

    held = Held()
    ref = weakref.ref(held)
    xs = cpo.Stream(0, lambda held=held: cpo.stream_iterate(1, lambda x: x + 1))
    del held
    assert ref() is not None  # the thunk holds it until the tail is forced
    assert xs.tail.head == 1 and xs.tail is xs.tail
    assert ref() is None


def test_iterate_unrolls_from_undefined():
    phi = lambda f: (lambda a: seq.unit(a))
    assert seq.converges_within(cpo.iterate(phi, 0)("x"), 50) is None
    assert seq.converges_within(cpo.iterate(phi, 1)("x"), 50) == Witness("x", 0)


def test_lfp_of_constant_functional():
    phi = lambda f: (lambda a: seq.unit(42))
    w = seq.converges_within(cpo.lfp(phi)(0), 50)
    assert w == Witness(42, seq.cantor_pair(1, 0))


def test_lfp_of_identity_is_bottom():
    fix = cpo.lfp(lambda f: f)
    assert prefix(fix("anything"), 64) == [seq.PENDING] * 64


def _countdown_phi(f):
    def step(n):
        return seq.unit(0) if n == 0 else f(n - 1)

    return step


def test_fixed_point_property_at_verdict_level():
    fix = cpo.lfp(_countdown_phi)
    for x in range(6):
        lhs = fix(x)
        rhs = _countdown_phi(fix)(x)
        assert seq.bisim_within(lhs, rhs, 2048) is not Verdict.FALSE


def test_unrollings_form_a_chain():
    for phi in (_countdown_phi, lambda f: (lambda a: seq.unit(9))):
        for n in range(5):
            lo = cpo.iterate(phi, n)
            hi = cpo.iterate(phi, n + 1)
            for x in range(4):
                assert seq.leq_within(lo(x), hi(x), 64) is not Verdict.FALSE


def test_lfp_shares_unrollings_across_applications():
    applied = []

    def phi(f):
        applied.append(1)

        def step(a):
            return seq.unit(a) if a == 0 else f(a - 1)

        return step

    fix = cpo.lfp(phi)
    assert seq.converges_within(fix(3), 200).value == 0
    before = len(applied)
    assert seq.converges_within(fix(2), 200).value == 0
    assert len(applied) == before  # deep enough already; nothing rebuilt


def test_lfp_of_non_monotone_functional_is_caught():
    # phi ignores its argument's answers and flips value with depth parity
    depth = [0]

    def phi(f):
        depth[0] += 1
        d = depth[0]
        return lambda a: seq.unit(d % 2)

    with pytest.raises(ChainViolationError):
        prefix(cpo.lfp(phi)(0), 20)


def test_search_finds_the_first_satisfier():
    xs = cpo.stream_iterate(1, lambda x: x + 1)
    w = seq.converges_within(cpo.search(lambda x: x % 2 == 0, xs), 100)
    assert w.value == 2


def test_search_witness_index_is_the_diagonal_cell():
    # element m is the first satisfier, found by unrolling depth m + 1
    for m in range(12):
        xs = cpo.stream_iterate(0, lambda x: x + 1)
        w = seq.converges_within(cpo.search(lambda x, m=m: x == m, xs), 256)
        assert (w.value, w.index) == (m, seq.cantor_pair(m + 1, 0)) == (m, (m + 1) * (m + 2) // 2)


def test_search_never_satisfied_stays_pending():
    xs = cpo.stream_iterate(1, lambda x: x + 2)  # odd numbers only
    s = cpo.search(lambda x: x % 2 == 0, xs)
    assert seq.converges_within(s, 500) is None


def test_search_agrees_with_linear_scan(rng):
    for _ in range(100):
        start = rng.randrange(-10, 10)
        step = rng.randrange(1, 4)
        m = rng.randrange(20)
        target = start + step * m
        xs = cpo.stream_iterate(start, lambda x, d=step: x + d)
        w = seq.converges_within(cpo.search(lambda x, t=target: x >= t, xs), 1024)
        want = next(x for x in cpo.stream_prefix(xs, m + 1) if x >= target)
        assert w is not None and w.value == want
