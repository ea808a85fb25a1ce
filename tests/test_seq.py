import gc
import math
import random
import traceback
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from partiality import cpo
from partiality import delay as D
from partiality import seq
from partiality.seq import PENDING, ChainViolationError, Done, Verdict, Witness
from helpers import prefix, rand_seq, shift_n


# --- cells and monotonicity ------------------------------------------------


def test_unit_is_done_everywhere():
    s = seq.unit(5)
    assert prefix(s, 4) == [Done(5)] * 4


def test_bottom_is_pending_everywhere():
    assert prefix(seq.bottom(), 50) == [PENDING] * 50


def test_shift_delays_by_one():
    s = seq.shift(seq.unit(1))
    assert prefix(s, 3) == [PENDING, Done(1), Done(1)]


def test_unshift_inverts_shift_pointwise():
    for s, _, _ in (rand_seq(random.Random(i)) for i in range(40)):
        assert prefix(seq.unshift(seq.shift(s)), 20) == prefix(s, 20)


def test_random_constructions_are_monotone(rng):
    for _ in range(100):
        s, _, _ = rand_seq(rng)
        assert seq.ismon_prefix(s, 256)
    fam = lambda i: seq.unit(3) if i >= 2 else seq.bottom()
    assert seq.ismon_prefix(seq.lub(fam), 256)


def test_from_fn_stabilizes_a_lawless_function():
    raw = {0: PENDING, 1: Done(3), 2: PENDING, 3: Done(9)}
    s = seq.from_fn(lambda n: raw.get(n, Done(7)))
    assert prefix(s, 6) == [PENDING, Done(3), Done(3), Done(3), Done(3), Done(3)]
    assert seq.ismon_prefix(s, 6)


def test_producer_errors_are_cached_and_reraised():
    def fn(n):
        raise RuntimeError("boom")

    s = seq.from_fn(fn)
    with pytest.raises(RuntimeError):
        s.at(0)
    with pytest.raises(RuntimeError):
        s.at(0)


def test_a_failing_factory_is_called_once():
    calls = []

    def factory():
        calls.append(1)
        raise RuntimeError("no producer")

    s = seq.Seq(factory)
    for _ in range(3):
        with pytest.raises(RuntimeError, match="no producer"):
            s.at(2)
    assert len(calls) == 1


def test_producer_may_stop_after_its_done_cell():
    def stopping():
        return seq.Seq(lambda: iter([PENDING, Done(1)]))

    assert seq.converges_within(stopping(), 10) == Witness(1, 1)
    assert stopping().at(10**9) == Done(1)
    assert seq.ismon_prefix(stopping(), 10**6)


def test_producer_that_stops_before_a_done_cell_is_an_error():
    s = seq.Seq(lambda: iter([PENDING, PENDING]))
    with pytest.raises(RuntimeError, match="not total") as raised:
        s.at(5)
    with pytest.raises(RuntimeError) as again:
        s.at(5)
    assert again.value is raised.value


@pytest.mark.parametrize("wrap, before", [(lambda s: s, []), (seq.unshift, [0])], ids=["from_fn", "unshift"])
def test_from_fn_does_not_call_fn_past_the_done_index(wrap, before):
    calls = []

    def fn(n):
        calls.append(n)
        return Done(n) if n >= 3 else PENDING

    s = wrap(seq.from_fn(fn))
    assert calls == before  # unshift takes its argument's first step when called
    assert s.at(50) == Done(3)
    assert calls == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "make, index",
    [
        (lambda: seq.from_fn(lambda n: Done(7) if n >= 3005 else PENDING), 3005),
        # member 80 is the first done one, met at its cell (80, 0)
        (lambda: seq.lub(lambda i: seq.unit(7) if i >= 80 else seq.bottom()), seq.cantor_pair(80, 0)),
    ],
    ids=["from_fn", "lub"],
)
def test_unshift_moves_the_witness_down_one_index_a_level(make, index):
    assert seq.converges_within(make(), 10**4) == Witness(7, index)
    s = make()
    for _ in range(3000):
        s = seq.unshift(s)
    assert seq.converges_within(s, 10**4) == Witness(7, index - 3000)


def test_unshift_of_shift_reads_the_graph_it_was_given():
    s = seq.of_delay(D.map(D.later(D.now(4)), str))  # unscanned: backed by its Delay
    assert seq.to_delay(seq.unshift(seq.shift(s))) is seq.to_delay(s)


def _complete(s):
    s.at(3)
    return s


@pytest.mark.parametrize(
    "make",
    [
        lambda: seq.unit(3),
        lambda: _complete(seq.unit(3)),
        lambda: seq.of_delay(D.map(D.now(1), str)),
        lambda: seq.from_fn(lambda n: Done(1)),
        lambda: seq.lub(lambda i: seq.unit(2)),
    ],
    ids=["unit", "scanned-unit", "bind", "from_fn", "lub"],
)
def test_unshift_of_a_sequence_done_at_index_0_is_itself(make):
    s = make()
    assert seq.unshift(s) is s


@pytest.mark.parametrize(
    "cells, first",
    [
        ([PENDING, Done(1), Done(1), Done(2)], (1, Done(1))),
        ([Done(1), Done(1), Done(1), PENDING], (0, Done(1))),
        ([PENDING, Done(1), Done(1), 3], (1, Done(1))),  # a run after the done cell
    ],
)
def test_non_monotone_producer_raises_at_its_index(cells, first):
    def produce():
        yield from cells
        raise AssertionError("pulled past the offending cell")

    s = seq.Seq(produce)
    assert prefix(s, 3) == cells[:3]
    with pytest.raises(seq.MonotonicityError) as raised:
        s.at(3)
    err = raised.value
    assert (err.index, err.cell, err.first) == (3, cells[3], first)
    with pytest.raises(seq.MonotonicityError) as again:
        s.at(3)
    assert again.value is err
    assert s.at(2) == cells[2]
    assert seq.ismon_prefix(seq.Seq(produce), 3)
    assert not seq.ismon_prefix(seq.Seq(produce), 4)


def _boom(n):
    raise KeyError("boom")


def _non_monotone():
    yield from (PENDING, Done(1), Done(2))


@pytest.mark.parametrize(
    "s, error",
    [
        (lambda: seq.from_fn(_boom), KeyError),
        (lambda: seq.Seq(_non_monotone), seq.MonotonicityError),
        (lambda: seq.Seq(lambda: iter([PENDING])), RuntimeError),
        (lambda: seq.lub(lambda i: seq.unit(i % 2)), ChainViolationError),
        # a source shaped like (exception, traceback) is a source, not a failure
        (lambda: seq.Seq((KeyError("boom"), None)), TypeError),
    ],
    ids=["producer", "monotonicity", "not-total", "chain-violation", "tuple-source"],
)
def test_a_failure_is_reraised_with_the_traceback_it_first_had(s, error):
    # each raise adds its frames to the exception's traceback; a re-raise
    # that started from the last one would grow it on every query
    s = s()
    errors, lengths = [], []
    for _ in range(6):
        with pytest.raises(error) as raised:
            s.at(5)
        errors.append(raised.value)
        lengths.append(len(traceback.extract_tb(raised.value.__traceback__)))
    assert all(err is errors[0] for err in errors)
    assert len(set(lengths[1:])) == 1 and lengths[1] <= lengths[0] + 1, lengths


def test_a_failure_keeps_no_more_memory_as_it_is_reraised():
    s = seq.from_fn(_boom)

    def requery(times):
        for _ in range(times):
            try:
                s.at(0)
            except KeyError:
                pass

    requery(10)
    gc.collect()
    tracemalloc.start()
    try:
        requery(10_000)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 20_000, kept  # a traceback that grew on each re-raise kept 6 MB


def _reads_itself_at_once():
    # an of_delay whose first step reads its own Seq
    s = seq.of_delay(D.Delay(lambda: D.now(s.at(0))))
    return s, 0


def _reads_itself_on_a_later_pull():
    # the step at index 3 reads cells the pull has not reached yet
    s = seq.from_fn(lambda n: s.at(n + 1) if n == 3 else PENDING)
    assert s.at(1) is PENDING
    return s, 5


def _lub_of_itself():
    # a lub whose family reads the lub
    s = seq.lub(lambda i: s)
    return s, 0


@pytest.mark.parametrize(
    "make", [_reads_itself_at_once, _reads_itself_on_a_later_pull, _lub_of_itself], ids=["of_delay", "later-pull", "lub"]
)
def test_a_sequence_read_during_its_own_pull_is_a_cached_value_error(make):
    s, n = make()
    with pytest.raises(ValueError, match="read during its own pull") as raised:
        s.at(n)
    with pytest.raises(ValueError) as again:
        s.at(n + 1)
    assert again.value is raised.value


def _stops(*args):
    raise StopIteration


@pytest.mark.parametrize(
    "make",
    [
        lambda: seq.of_delay(D.later(D.Delay(_stops))),
        lambda: seq.from_fn(lambda n: PENDING if n < 3 else _stops()),
        lambda: seq.bind(seq.shift(seq.unit(1)), _stops),
    ],
    ids=["of_delay", "from_fn", "bind"],
)
def test_a_step_that_raises_stop_iteration_is_a_cached_runtime_error(make):
    # a StopIteration from a step is a failure, not a source that has ended
    s = make()
    with pytest.raises(RuntimeError) as raised:
        s.at(5)
    assert type(raised.value.__cause__) is StopIteration
    with pytest.raises(RuntimeError) as again:
        seq.converges_within(s, 6)
    assert again.value is raised.value


def test_a_producer_may_yield_a_run_of_pending_cells():
    s = seq.Seq(lambda: iter([5, Done(1)]))
    assert seq.converges_within(s, 2) is None  # the run passes the index asked for
    assert s.at(4) is PENDING
    assert seq.converges_within(s, 10) == Witness(1, 5)
    assert prefix(s, 7) == [PENDING] * 5 + [Done(1)] * 2


def test_a_producer_that_never_asks_is_never_sent_anything():
    # `yield from` a tuple cannot take `send`
    def produce():
        yield from (PENDING, 3, Done(1))

    assert seq.converges_within(seq.Seq(produce), 10) == Witness(1, 4)


@pytest.mark.parametrize("run", [0, -2])
def test_a_run_must_be_positive(run):
    calls = []

    def factory():
        calls.append(1)
        return iter([PENDING, run, Done(1)])

    s = seq.Seq(factory)
    with pytest.raises(ValueError, match=f"run of {run} cells at index 1") as raised:
        s.at(3)
    assert type(raised.value) is ValueError
    with pytest.raises(ValueError) as again:
        seq.converges_within(s, 1)
    assert again.value is raised.value
    assert s.at(0) is PENDING
    assert calls == [1]


def test_negative_fuel_is_rejected():
    with pytest.raises(ValueError):
        seq.converges_within(seq.unit(1), -1)


def test_order_checks_reject_negative_fuel_before_any_shortcut():
    s = seq.unit(1)
    for check in (
        lambda: seq.leq_within(seq.bottom(), s, -1),  # bottom is below everything
        lambda: seq.leq_within(s, s, -1),  # same object
        lambda: seq.bisim_within(s, s, -1),
    ):
        with pytest.raises(ValueError):
            check()


# --- convergence observation -----------------------------------------------


def test_witness_is_minimal(rng):
    for _ in range(200):
        s, k, v = rand_seq(rng)
        w = seq.converges_within(s, 64)
        if k is None or k > 64:
            assert w is None
        else:
            assert w == Witness(v, k)


def test_converges_within_does_not_force_past_the_witness():
    forced = []

    def produce():
        n = 0
        while True:
            forced.append(n)
            yield Done(1) if n >= 3 else PENDING
            n += 1

    s = seq.Seq(produce)
    assert seq.converges_within(s, 1000) == Witness(1, 3)
    assert forced == [0, 1, 2, 3]


def test_terminates_with_verdicts():
    assert seq.terminates_with_within(seq.unit(1), 1, 0) is Verdict.TRUE
    assert seq.terminates_with_within(seq.unit(1), 2, 0) is Verdict.FALSE
    assert seq.terminates_with_within(seq.bottom(), 1, 500) is Verdict.UNKNOWN
    assert seq.terminates_with_within(shift_n(seq.unit(1), 9), 1, 4) is Verdict.UNKNOWN


# --- conversions -----------------------------------------------------------


def test_of_delay_counts_steps_as_indices():
    d = D.later(D.later(D.now(8)))
    assert prefix(seq.of_delay(d), 4) == [PENDING, PENDING, Done(8), Done(8)]


def test_of_delay_memory_does_not_grow_with_fuel():
    # a scan keeps only the current step of the Delay, not the steps behind it
    def peak(fuel):
        gc.collect()
        tracemalloc.start()
        try:
            seq.converges_within(seq.of_delay(D.map(D.never(), str)), fuel)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)
    assert peak(10**5) < 16_384


def test_bottom_is_one_sequence():
    assert seq.bottom() is seq.bottom()
    assert cpo.bottom_fun(0) is seq.bottom()


def test_bottom_absorbs():
    def f(a):
        raise AssertionError("f ran on a sequence that never converges")

    b = seq.bottom()
    assert seq.shift(b) is b and seq.unshift(b) is b
    assert seq.bind(b, f) is b and seq.map(b, f) is b and seq.join(b) is b


def test_scan_over_a_live_bottom_keeps_memory_flat():
    # the caller keeps `s`; a scan of what is built on it must not keep its layers
    def peak(fuel):
        s = seq.map(seq.bottom(), str)
        gc.collect()
        tracemalloc.start()
        try:
            seq.converges_within(seq.shift(s), fuel)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)
    assert peak(10**4) < 2 * peak(10**3) + 4096


def _never_str():
    return seq.map(seq.of_delay(D.never()), str)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 3: a graph built on a held, unscanned source keeps the nodes its scan passes",
)
@pytest.mark.parametrize(
    "source, build",
    [(_never_str, seq.shift), (_never_str, seq.unshift), (lambda: seq.from_fn(lambda n: PENDING), seq.shift)],
    ids=["shift", "unshift", "shift-from_fn"],
)
def test_scan_over_a_held_source_keeps_memory_flat(source, build):
    def peak(fuel):
        s = source()  # held through the scan
        gc.collect()
        tracemalloc.start()
        try:
            seq.converges_within(build(s), fuel)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)
    assert peak(10**4) < 2 * peak(10**3) + 4096


def test_bottom_pulls_nothing():
    b = seq.bottom()
    assert seq.converges_within(b, 10**9) is None and b.at(10**9 + 1) is PENDING
    assert seq.to_delay(b) is D.never()


def test_fuel_and_indices_are_integers():
    b = seq.bottom()
    with pytest.raises(TypeError):
        seq.converges_within(seq.unit(1), 1.5)
    with pytest.raises(TypeError):
        seq.converges_within(seq.shift(seq.unit(1)), 2.0)
    with pytest.raises(TypeError):
        seq.leq_within(b, seq.unit(1), 1.5)
    with pytest.raises(TypeError):
        b.at(math.inf)
    with pytest.raises(TypeError):
        seq.converges_within(b, math.inf)
    with pytest.raises(TypeError):
        seq.unit(1).at(1.5)
    # none of these reached the shared bottom's source
    assert seq.to_delay(b) is D.never()
    assert b.at(10**9) is PENDING


def test_an_index_is_checked_however_far_the_sequence_was_scanned():
    t = seq.of_delay(D.map(D.never(), str))
    t.at(3)  # 0.5 and 2.0 now lie inside the scanned prefix
    u = seq.unit(1)
    u.at(0)  # complete: every index lies inside its scan
    for s, n in ((t, 0.5), (t, 2.0), (t, 5.5), (u, 5.5), (seq.bottom(), 1.5)):
        with pytest.raises(TypeError):
            s.at(n)
    # an index that is an integer of another type is still one
    assert t.at(True) is PENDING and u.at(True) == Done(1)


def test_to_delay_is_the_source_only_before_a_pull():
    d = D.later(D.later(D.now(4)))
    s = seq.of_delay(d)
    assert seq.to_delay(s) is d
    s.at(0)
    assert seq.to_delay(s) is not d
    assert D.run_fuel(seq.to_delay(s), 5) == D.run_fuel(d, 5) == D.Converged(4, 2)


def test_to_delay_counts_pending_as_steps():
    r = D.run_fuel(seq.to_delay(shift_n(seq.unit(8), 2)), 10)
    assert r.value == 8 and r.steps == 2


def test_to_delay_of_bottom_times_out():
    assert D.run_fuel(seq.to_delay(seq.bottom()), 100) is D.TIMEOUT


# --- monad ----------------------------------------------------------------


def test_bind_composes_convergence_indices():
    s = seq.bind(shift_n(seq.unit(2), 2), lambda x: shift_n(seq.unit(x + 1), 1))
    assert prefix(s, 5) == [PENDING, PENDING, PENDING, Done(3), Done(3)]


def test_bind_calls_the_continuation_once():
    calls = []

    def f(x):
        calls.append(x)
        return seq.unit(x)

    s = seq.bind(seq.unit(4), f)
    prefix(s, 10)
    assert calls == [4]


def test_join_flattens():
    ss = seq.unit(shift_n(seq.unit(3), 1))
    assert prefix(seq.join(ss), 3) == [PENDING, Done(3), Done(3)]


@given(st.integers(0, 5), st.integers(0, 5), st.integers(-3, 3))
def test_map_shifts_nothing(k, j, v):
    s = seq.map(shift_n(seq.unit(v), k), lambda x: x - j)
    assert seq.converges_within(s, 32) == Witness(v - j, k)


def test_bind_agrees_with_the_delay_route(rng):
    # independent oracle: same bind computed through the Delay side
    from helpers import rand_kleisli

    for _ in range(150):
        s, _, _ = rand_seq(rng)
        f = rand_kleisli(rng)
        direct = seq.bind(s, f)
        via_delay = seq.of_delay(D.bind(seq.to_delay(s), lambda a: seq.to_delay(f(a))))
        assert prefix(direct, 48) == prefix(via_delay, 48)


# --- fuel-bounded order and equivalence ------------------------------------


def test_leq_flat_cases():
    assert seq.leq_within(seq.unit(1), seq.unit(1), 0) is Verdict.TRUE
    assert seq.leq_within(seq.unit(1), seq.unit(2), 0) is Verdict.FALSE
    assert seq.leq_within(seq.bottom(), seq.unit(1), 3) is Verdict.TRUE
    assert seq.leq_within(seq.unit(1), seq.bottom(), 1000) is Verdict.UNKNOWN


def test_leq_needs_enough_fuel():
    slow = shift_n(seq.unit(1), 20)
    assert seq.leq_within(slow, seq.unit(1), 5) is Verdict.UNKNOWN
    assert seq.leq_within(slow, seq.unit(1), 20) is Verdict.TRUE


def test_bisim_of_two_bottoms_is_true():
    assert seq.bisim_within(seq.bottom(), seq.bottom(), 8) is Verdict.TRUE


def test_bisim_same_object_is_true_even_undetermined():
    s = shift_n(seq.unit(1), 100)
    assert seq.bisim_within(s, s, 2) is Verdict.TRUE


def test_bisim_mixed():
    assert seq.bisim_within(seq.unit(3), shift_n(seq.unit(3), 4), 10) is Verdict.TRUE
    assert seq.bisim_within(seq.unit(3), shift_n(seq.unit(4), 4), 10) is Verdict.FALSE
    assert seq.bisim_within(seq.unit(3), seq.bottom(), 10) is Verdict.UNKNOWN


def test_verdict_and_table():
    T, F, U = Verdict.TRUE, Verdict.FALSE, Verdict.UNKNOWN
    assert seq.verdict_and(T, T) is T
    assert seq.verdict_and(T, U) is U
    assert seq.verdict_and(U, F) is F
    assert seq.verdict_and(F, T) is F
    assert seq.verdict_and(U, U) is U


# --- pairing and lub -------------------------------------------------------


@given(st.integers(0, 3000))
def test_cantor_unpair_then_pair(k):
    i, j = seq.cantor_unpair(k)
    assert seq.cantor_pair(i, j) == k


@given(st.integers(0, 60), st.integers(0, 60))
def test_cantor_pair_then_unpair(i, j):
    assert seq.cantor_unpair(seq.cantor_pair(i, j)) == (i, j)


def test_cantor_indices_are_checked_as_fuel_is():
    three = type("Three", (), {"__index__": lambda self: 3})()
    assert seq.cantor_pair(three, three) == seq.cantor_pair(3, 3) == 24
    assert seq.cantor_unpair(three) == seq.cantor_unpair(3) == (2, 0)
    assert seq.cantor_pair(True, 2) == 8
    for call in (lambda: seq.cantor_pair(-1, 0), lambda: seq.cantor_pair(0, -1), lambda: seq.cantor_unpair(-1)):
        with pytest.raises(ValueError, match="^negative index: -1$"):
            call()
    for call in (lambda: seq.cantor_pair(1.5, 0), lambda: seq.cantor_pair(0, 1.5), lambda: seq.cantor_unpair(1.5)):
        with pytest.raises(TypeError):
            call()


def test_lub_of_all_bottoms_is_pending():
    assert prefix(seq.lub(lambda i: seq.bottom()), 30) == [PENDING] * 30


def test_lub_first_wins_scan_index():
    fam = lambda i: seq.unit(7) if i >= 5 else seq.bottom()
    assert seq.converges_within(seq.lub(fam), 100) == Witness(7, seq.cantor_pair(5, 0))


def test_lub_conflict_raises_lazily():
    bad = seq.lub(lambda i: seq.unit(i % 2))
    assert bad.at(0) == Done(0)  # the good prefix is still served
    with pytest.raises(ChainViolationError) as ei:
        prefix(bad, 5)
    assert ei.value.first[2] != ei.value.second[2]


def test_lub_memoizes_family_members():
    built = []

    def fam(i):
        built.append(i)
        return seq.bottom() if i else shift_n(seq.unit(1), 3)

    s = seq.lub(fam)
    built_by_cell = []
    for n in range(20):
        s.at(n)
        built_by_cell.append(list(built))
    assert sorted(built) == sorted(set(built))
    # members are built in order 0, 1, 2, ..., member i when cell cantor_pair(i, 0) is pulled
    want = [[i for i in range(n + 1) if seq.cantor_pair(i, 0) <= n] for n in range(20)]
    assert built_by_cell == want


def test_lub_walks_the_cantor_diagonals():
    touched = []

    def fam(i):
        return seq.from_fn(lambda j: touched.append((i, j)) or PENDING)

    n = 528  # the first 32 diagonals
    prefix(seq.lub(fam), n)
    assert touched == [seq.cantor_unpair(k) for k in range(n)]


def test_lub_of_constant_family_is_equivalent_to_it():
    for k in range(5):
        s = shift_n(seq.unit(4), k)
        assert seq.bisim_within(seq.lub(lambda i, s=s: s), s, 64) is not Verdict.FALSE


def test_lub_witness_points_into_the_family_table():
    fam = lambda i: shift_n(seq.unit(6), 3) if i >= 2 else seq.bottom()
    w = seq.converges_within(seq.lub(fam), 128)
    hits = [
        n
        for n in range(w.index + 1)
        if fam(seq.cantor_unpair(n)[0]).at(seq.cantor_unpair(n)[1]) == Done(w.value)
    ]
    assert hits and hits[0] == w.index


def _member(spec, i, log):
    kind, v, k = spec
    if kind == "bottom":
        return seq.bottom()
    if kind == "never":
        return seq.of_delay(D.never())
    if kind == "shift":
        return shift_n(seq.unit(v), k)
    # "fn": done with v from index k on, logging each cell it is asked for
    return seq.from_fn(lambda j: log.append(("touch", i, j)) or (Done(v) if j >= k else PENDING))


def _lub_scan(family, n_cells, log):
    # pulls cells 0, 1, ... one `at` at a time, keeping the log of each pull
    s = seq.lub(family)
    cells, events = [], []
    for n in range(n_cells):
        mark = len(log)
        try:
            cells.append(s.at(n))
        except ChainViolationError as err:
            events.append(log[mark:])
            return cells, events, (err.first, err.second)
        events.append(log[mark:])
    return cells, events, None


def _lub_oracle(specs, n_cells):
    # a brute-force scan of the family table in Cantor order: member i is
    # built at (i, 0), and a "fn" member is asked for cell j up to its done one
    cells, events, first = [], [], None
    for n in range(n_cells):
        i, j = seq.cantor_unpair(n)
        kind, v, k = specs[i]
        ev = [("build", i)] if j == 0 else []
        if kind == "fn" and j <= k:
            ev.append(("touch", i, j))
        events.append(ev)
        if kind in ("shift", "fn") and j >= k:
            if first is None:
                first = (i, j, v)
            elif v != first[2]:
                return cells, events, (first, (i, j, v))
        cells.append(PENDING if first is None else Done(first[2]))
    return cells, events, None


def _logged(specs, log):
    def family(i):
        log.append(("build", i))
        return _member(specs[i], i, log)

    return family


def test_lub_passes_bottom_prefixes_as_the_brute_force_scan_does(rng):
    n_cells = 300  # 24 diagonals, members 0..23
    for trial in range(240):
        low = trial % 9
        clash = rng.random() < 0.2
        kinds = ["bottom", "never", "shift", "fn", "fn"]
        specs = [("bottom", 0, 0)] * low + [
            (rng.choice(kinds), rng.randrange(2) if clash else 7, rng.randrange(12))
            for _ in range(24 - low)
        ]
        log = []
        got = _lub_scan(_logged(specs, log), n_cells, log)
        want = _lub_oracle(specs, n_cells)
        assert got == want, specs
        cells, events, _ = want
        done = [n for n, c in enumerate(cells) if c is not PENDING]
        log = []
        w = seq.converges_within(seq.lub(_logged(specs, log)), n_cells - 1)
        if done:
            assert w == Witness(cells[done[0]].value, done[0])
            assert log == [e for ev in events[: done[0] + 1] for e in ev]
        else:
            assert w is None


def test_lub_builds_no_member_inside_a_run_it_has_passed():
    built = []
    s = seq.lub(lambda i: built.append(i) or seq.bottom())
    start = seq.cantor_pair(5, 0)
    assert s.at(start + 2) is PENDING
    assert built == list(range(6))
    for n in range(start, start + 6):  # the rest of diagonal 5
        assert s.at(n) is PENDING
    assert built == list(range(6))
    assert s.at(start + 6) is PENDING  # the cell (6, 0) builds member 6
    assert built == list(range(7))


def test_lub_reads_no_cell_of_its_leading_bottom_members(monkeypatch):
    # pending members that are not bottom() follow the bottom() prefix; the
    # prefix is still passed a diagonal at a time up to the done cell
    reads = []
    at = seq.Seq.at

    def counting_at(self, n):
        if self is seq.bottom():
            reads.append(n)
        return at(self, n)

    monkeypatch.setattr(seq.Seq, "at", counting_at)
    fam = lambda i: seq.bottom() if i < 3 else shift_n(seq.unit(7), 40)
    assert seq.converges_within(seq.lub(fam), 2000) == Witness(7, seq.cantor_pair(3, 40))
    assert reads == []


def test_lub_conflict_after_a_bottom_prefix_names_the_oracle_cells():
    bad = seq.lub(lambda i: seq.bottom() if i < 4 else seq.unit(i % 2))
    specs = [("bottom", 0, 0)] * 4 + [("shift", i % 2, 0) for i in range(4, 40)]
    cells, _, (first, second) = _lub_oracle(specs, 300)
    assert prefix(bad, len(cells)) == cells
    with pytest.raises(ChainViolationError) as raised:
        bad.at(len(cells))
    assert (raised.value.first, raised.value.second) == (first, second) == ((4, 0, 0), (5, 0, 1))


def test_antisymmetry_at_verdict_level(rng):
    for _ in range(100):
        s, _, _ = rand_seq(rng)
        t, _, _ = rand_seq(rng)
        if (
            seq.leq_within(s, t, 64) is Verdict.TRUE
            and seq.leq_within(t, s, 64) is Verdict.TRUE
        ):
            assert seq.bisim_within(s, t, 64) is Verdict.TRUE


# --- nesting ---------------------------------------------------------------


def test_left_nested_bind_is_stack_safe():
    s = seq.unit(0)
    for _ in range(10**5):
        s = seq.bind(s, lambda v: seq.unit(v + 1))
    assert seq.converges_within(s, 0) == Witness(10**5, 0)


def test_deep_shift_is_stack_safe():
    assert seq.converges_within(shift_n(seq.unit(7), 2048), 2048) == Witness(7, 2048)


@pytest.mark.parametrize(
    "start, level, fuel, answer",
    [
        (lambda: seq.unit(0), seq.shift, 10**5, Witness(0, 10**5)),
        (lambda: seq.unit(0), lambda s: seq.unshift(seq.shift(seq.shift(s))), 10**5, Witness(0, 10**5)),
        # a left-nested bind tower costs a node per level per step, so its fuel stays small
        (_never_str, lambda s: seq.bind(s, seq.unit), 5, None),
    ],
    ids=["shift", "unshift", "bind"],
)
def test_a_tower_over_scanned_sequences_answers_at_any_depth(start, level, fuel, answer):
    s = start()
    for _ in range(10**5):
        s = level(s)
        s.at(0)  # each level is scanned before the next is built on it
    assert seq.converges_within(s, fuel) == answer


def test_shared_bind_chain_runs_each_continuation_once():
    # level i binds the previous level twice; a loop that re-ran an inner
    # bind instead of sharing its memoized layers would run 2^16 - 1 of them
    calls = []

    def level(t):
        return seq.bind(t, lambda a: seq.bind(t, lambda b: calls.append(b) or seq.unit(a + b)))

    t = seq.unit(1)
    for _ in range(16):
        t = level(t)
    assert seq.converges_within(t, 0) == Witness(2**16, 0)
    assert len(calls) == 16
