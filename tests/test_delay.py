import time

import pytest
from hypothesis import given, strategies as st

from partiality import delay as D
from partiality import cpo, lang, reals, seq
from helpers import laters_n, shift_n


def test_now_converges_in_zero_steps():
    r = D.run_fuel(D.now(42), 0)
    assert r is not D.TIMEOUT and r.value == 42 and r.steps == 0


def test_exact_fuel_is_enough():
    d = laters_n(D.now("x"), 7)
    assert D.run_fuel(d, 6) is D.TIMEOUT
    r = D.run_fuel(d, 7)
    assert r.value == "x" and r.steps == 7


def test_never_times_out():
    assert D.run_fuel(D.never(), 1000) is D.TIMEOUT


def test_never_times_out_at_once_at_any_fuel():
    # its answer is known: no step of it is taken
    start = time.perf_counter()
    assert D.run_fuel(D.never(), 10**12) is D.TIMEOUT
    assert D.run_fuel(D.never(), 10**30) is D.TIMEOUT
    assert time.perf_counter() - start < 1


def plain(k, to):
    # k steps, then `to`, as a chain of plain nodes
    if type(to) is D.Now:
        return laters_n(D.Delay(to), k - 1)
    return laters_n(to, k)


@given(st.integers(1, 8), st.sampled_from(["now", "later", "never"]), st.integers(0, 10), st.integers(0, 20))
def test_a_chain_of_known_length_answers_as_its_steps_do(k, kind, observed, fuel):
    # behind k steps: a value, a node two steps from its value, or never();
    # some of the chain observed first, then asked as run_fuel and as a scan
    to = {"now": D.Now("v"), "later": laters_n(D.now("v"), 2), "never": D.never()}[kind]
    d = e = D._behind(k, to)
    for _ in range(observed):
        if type(ob := e.observe()) is D.Now:
            break
        e = ob.rest
    want = D.run_fuel(plain(k, to), fuel)
    assert D.run_fuel(d, fuel) == want
    w = seq.converges_within(seq.of_delay(d), fuel)
    assert w == (None if want is D.TIMEOUT else seq.Witness(want.value, want.steps))


def test_a_chain_of_known_length_is_passed_at_once():
    n = 10**12
    for d, steps in ((D._behind(n, D.Now("v")), n - 1), (D._behind(n, D.now("v")), n),
                     (D._behind(n, D._behind(n, D.now("v"))), 2 * n)):
        assert D.run_fuel(d, steps) == D.Converged("v", steps)
        assert D.run_fuel(d, steps - 1) is D.TIMEOUT
        assert seq.converges_within(seq.of_delay(d), steps) == seq.Witness("v", steps)
    assert D.run_fuel(D._behind(n, D.never()), 2 * n) is D.TIMEOUT


def test_negative_fuel_is_rejected():
    with pytest.raises(ValueError):
        D.run_fuel(laters_n(D.now(1), 5), -1)


def test_fuel_that_is_not_an_integer_is_rejected():
    for fuel in (1.5, 2.0):
        with pytest.raises(TypeError):
            D.run_fuel(laters_n(D.now(1), 5), fuel)


class IndexFuel:
    """Fuel that is an integer only by ``__index__``.  A loop that compares
    the object itself with its count would never see it equal, so a few
    comparisons fail the test instead of letting it hang."""

    def __init__(self, n):
        self.n, self.compared = n, 0

    def __index__(self):
        return self.n

    def __eq__(self, other):
        self.compared += 1
        if self.compared > 3:
            raise AssertionError("the fuel object was compared, not its integer")
        return NotImplemented


THREE = lang.parse(r"(\f. f (f 1)) (\x. suc x)")  # three steps on both back ends

FUEL_TAKERS = {
    "run_fuel": lambda fuel: D.run_fuel(laters_n(D.now(1), 3), fuel),
    "converges_within": lambda fuel: seq.converges_within(shift_n(seq.unit(7), 3), fuel),
    "leq_within": lambda fuel: seq.leq_within(shift_n(seq.unit(1), 3), shift_n(seq.unit(1), 2), fuel),
    "equiv_within": lambda fuel: reals.equiv_within(lambda n: 0, lambda n: 1, fuel),  # apart from index 3
    "lang.run": lambda fuel: lang.run(THREE, fuel),
    "run_code": lambda fuel: lang.run_code(lang.compile_term(THREE), fuel),
    "agree_within": lambda fuel: lang.agree_within(THREE, fuel),
}


@pytest.mark.parametrize("taker", FUEL_TAKERS)
def test_fuel_that_is_an_integer_by_index_counts_as_that_integer(taker):
    go = FUEL_TAKERS[taker]
    assert go(IndexFuel(3)) == go(3) != go(2)
    with pytest.raises(ValueError, match="^negative fuel: -2$"):
        go(IndexFuel(-2))


def _depth_phi(f):
    # the n-th unrolling answers at arguments below n
    return lambda a: seq.unit(0) if a == 0 else seq.map(f(a - 1), lambda v: v + 1)


def _changes_at_2():
    yield from (seq.Done(0), seq.Done(0), seq.Done(1))  # not monotone at cell 2


# counts that are not fuel, each taken by the fuel rule
COUNT_TAKERS = {
    "is_cauchy_prefix": lambda n: reals.is_cauchy_prefix(lambda i: 1 if i == 3 else 0, n),
    "iterate": lambda n: seq.converges_within(cpo.iterate(_depth_phi, n)(2), 10),
    "stream_prefix": lambda n: cpo.stream_prefix(cpo.stream_iterate(0, lambda x: x + 1), n),
    "ismon_prefix": lambda n: seq.ismon_prefix(seq.Seq(_changes_at_2), n),
}


@pytest.mark.parametrize("taker", COUNT_TAKERS)
def test_a_count_is_checked_as_fuel_is(taker):
    go = COUNT_TAKERS[taker]
    assert go(IndexFuel(3)) == go(3) != go(2)
    with pytest.raises(ValueError, match="^negative count: -2$"):
        go(IndexFuel(-2))
    with pytest.raises(TypeError):
        go(1.5)


def test_fuel_is_counted_as_the_integer_it_stands_for():
    assert D.run_fuel(D.never(), IndexFuel(3)) is D.TIMEOUT
    identity = lang.parse(r"(\x. x) 1")
    for got in (lang.run(identity, True), lang.run_code(lang.compile_term(identity), True)):
        assert got == D.Converged(lang.Nat(1), 1) and type(got.steps) is int


def test_observation_is_memoized():
    calls = []
    d = D.Delay(lambda: calls.append(1) or D.Now(3))
    d.observe()
    d.observe()
    assert calls == [1]


def test_observe_returns_the_layer_a_thunk_gave():
    layer = D.Later(D.now(1))
    d = D.Delay(lambda: layer)
    assert D.run_fuel(d, 1) == D.Converged(1, 1)
    assert d.observe() is layer


def test_defer_is_lazy_until_observed():
    calls = []

    def k():
        calls.append(1)
        return D.now(5)

    d = D.defer(k)
    assert calls == []
    ob = d.observe()
    assert calls == [1] and isinstance(ob, D.Later)


@given(st.integers(0, 20), st.integers(0, 20), st.integers(-5, 5))
def test_bind_adds_steps_exactly(j, k, v):
    d = D.bind(laters_n(D.now(v), j), lambda a: laters_n(D.now(a * 3), k))
    r = D.run_fuel(d, j + k)
    assert r.value == v * 3 and r.steps == j + k


def test_bind_left_never_stays_never():
    d = D.bind(D.never(), lambda a: D.now(a))
    assert D.run_fuel(d, 200) is D.TIMEOUT


@given(st.integers(0, 10), st.integers(-100, 100))
def test_map_preserves_steps(k, v):
    r = D.run_fuel(D.map(laters_n(D.now(v), k), str), 64)
    assert r.value == str(v) and r.steps == k


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(-4, 4))
def test_monad_laws_exact_values_and_steps(j, k, m, a):
    # left id, right id, associativity agree on value AND step count at fuel 32
    f = lambda x: laters_n(D.now(x + 1), j)
    g = lambda x: laters_n(D.now(x * 2), k)
    d = laters_n(D.now(a), m)

    def obs(x):
        return D.run_fuel(x, 32)

    assert obs(D.bind(D.now(a), f)) == obs(f(a))
    assert obs(D.bind(d, D.now)) == obs(d)
    assert obs(D.bind(D.bind(d, f), g)) == obs(D.bind(d, lambda x: D.bind(f(x), g)))


def test_productivity_over_many_observations():
    # never() and a long later tower both stay productive for 10^4 observations
    assert D.run_fuel(D.never(), 10_000) is D.TIMEOUT
    r = D.run_fuel(laters_n(D.now(1), 10_000), 10_000)
    assert r.value == 1 and r.steps == 10_000


def test_left_nested_bind_is_stack_safe():
    # 10^5 binds on one source, observed at the default recursion limit
    d = D.later(D.now(0))
    for _ in range(10**5):
        d = D.bind(d, lambda v: D.now(v + 1))
    assert D.run_fuel(d, 1) == D.Converged(10**5, 1)


def test_right_nested_bind_is_stack_safe():
    def count_up(v):
        return D.now(v) if v == 10**5 else D.bind(D.now(v + 1), count_up)

    assert D.run_fuel(D.bind(D.later(D.now(0)), count_up), 1) == D.Converged(10**5, 1)


def test_shared_bind_chain_runs_each_continuation_once():
    # level i binds the previous level twice; memoized binds run the inner
    # continuation once per level, where re-running a level would double it
    calls = []

    def level(t):
        def inner(a):
            return D.bind(t, lambda b: calls.append(b) or D.now(a + b))

        return D.bind(t, inner)

    t = D.later(D.now(1))
    for _ in range(16):
        t = level(t)
    assert D.run_fuel(t, 2**16) == D.Converged(2**16, 2**16)
    assert len(calls) == 16


def test_bind_that_needs_its_own_value_is_an_error():
    # no step guards the recursion, so there is no layer to observe
    d = D.bind(D.now(1), lambda a: d)
    for _ in range(2):
        with pytest.raises(ValueError, match="its own step"):
            d.observe()


def test_a_thunk_that_needs_its_own_step_is_an_error():
    # as a bind that needs its own value is; each ask raises it again
    d = D.defer(lambda: D.now(d.observe()))
    for _ in range(2):
        with pytest.raises(ValueError, match="its own step"):
            d.observe()
    e = D.defer(lambda: D.now(D.run_fuel(e, 5)))
    with pytest.raises(ValueError, match="its own step"):
        D.run_fuel(e, 5)


def test_a_thunk_that_raised_runs_again_when_asked_again():
    calls = []

    def step():
        calls.append(len(calls))
        if len(calls) == 1:
            raise KeyboardInterrupt
        return D.now("x")

    d = D.defer(step)
    with pytest.raises(KeyboardInterrupt):
        d.observe()
    assert D.run_fuel(d, 3) == D.Converged("x", 1)
    assert calls == [0, 1]


def test_observation_after_an_exception_resumes():
    calls = []

    def f(a):
        calls.append(a)
        if len(calls) == 1:
            raise KeyError(a)
        return D.later(D.now(a + 1))

    d = D.map(D.bind(D.later(D.now(1)), f), str)
    with pytest.raises(KeyError):
        D.run_fuel(d, 5)
    assert D.run_fuel(d, 5) == D.Converged("2", 2)
    assert calls == [1, 1]


def test_bind_chain_resumes_after_an_exception_in_the_middle():
    # the binds below the failed one keep their layers, and a bind on the
    # chain then runs each of the rest once
    calls = []

    def inc(a):
        calls.append(a)
        if len(calls) == 3:
            raise KeyError(a)
        return D.now(a + 1)

    d = D.now(0)
    for _ in range(5):
        d = D.bind(d, inc)
    with pytest.raises(KeyError):
        D.run_fuel(d, 0)
    assert D.run_fuel(D.map(d, str), 0) == D.Converged("5", 0)
    assert calls == [0, 1, 2, 2, 3, 4]


def test_long_bind_chain_keeps_steps_and_a_shared_source_runs_once():
    calls = []
    shared = D.bind(D.later(D.now(1)), lambda a: calls.append(a) or D.later(D.now(a)))
    d = shared
    for k in range(10**4):
        d = D.bind(d, lambda a, k=k: D.later(D.now(a + k)) if k % 100 == 0 else D.now(a + k))
    both = D.bind(shared, lambda a: D.map(d, lambda b: (a, b)))
    assert D.run_fuel(both, 10**3) == D.Converged((1, 1 + sum(range(10**4))), 2 + 2 + 100)
    assert calls == [1]


# --- what a node memoizes ----------------------------------------------------


def counted(calls, tag, f):
    def g(*args):
        calls.append((tag, len(calls)))
        return f(*args)

    return g


def test_a_walk_builds_no_later(monkeypatch):
    # the walkers take each step as the next node itself; only observe wraps
    # one in a Later
    built = [0]
    init = D.Later.__init__

    def counting_init(self, rest):
        built[0] += 1
        init(self, rest)

    monkeypatch.setattr(D.Later, "__init__", counting_init)
    assert D.run_fuel(lang.evaluate(lang.OMEGA), 1000) is D.TIMEOUT
    assert D.run_fuel(lang.execute(lang.compile_term(lang.OMEGA)), 1000) is D.TIMEOUT
    tower = D.now(0)
    for _ in range(100):
        tower = D.bind(tower, lambda v: D.later(D.now(v + 1)))
    assert D.run_fuel(tower, 100) == D.Converged(100, 100)
    assert seq.converges_within(shift_n(seq.unit(7), 100), 100) == seq.Witness(7, 100)
    scanned = seq.of_delay(laters_n(D.now(5), 300))
    assert scanned.at(300) == seq.Done(5)
    assert D.run_fuel(seq.to_delay(scanned), 300) == D.Converged(5, 300)
    assert built[0] == 0
    D.later(D.now(1)).observe()
    assert built[0] == 1


TWICE = lang.parse(r"(\f. f (f 1)) (\x. suc x)")
FUEL = 12


def _user_chain(calls, k=3):
    def step(i):
        calls.append(("step", i))
        return D.Now(i) if i == k else D.Later(D.Delay(lambda: step(i + 1)))

    return D.Delay(lambda: step(0))


def _scanned(s):
    s.at(FUEL)
    return s


def _at(s, n):
    s.at(n)
    return s


def _asked(d, fuel):
    D.run_fuel(d, fuel)
    return d


NODE_KINDS = {
    "thunk": _user_chain,
    "thunk_giving_a_node": lambda calls: D.Delay(counted(calls, "thunk", lambda: laters_n(D.now(1), 2))),
    "now": lambda calls: D.now(4),
    "later": lambda calls: laters_n(D.now(4), 3),
    "defer": lambda calls: D.defer(counted(calls, "defer", lambda: laters_n(D.now(2), 2))),
    "never": lambda calls: D.never(),
    "bind_and_map": lambda calls: D.map(
        D.bind(laters_n(D.now(1), 2), counted(calls, "bind", lambda a: laters_n(D.now(a + 1), 2))),
        counted(calls, "map", str),
    ),
    "to_delay": lambda calls: seq.to_delay(_scanned(seq.of_delay(laters_n(D.now(3), 4)))),
    "evaluate": lambda calls: lang.evaluate(TWICE),
    "execute": lambda calls: lang.execute(lang.compile_term(TWICE)),
    "evaluate_asked_before": lambda calls: _asked(lang.evaluate(TWICE), 1),
    "to_delay_of_a_run": lambda calls: seq.to_delay(_at(seq.of_delay(lang.execute(lang.compile_term(TWICE))), 1)),
}


def observed(d):
    """The layers ``observe`` gives along ``d``, for as many steps as ``run_fuel`` at FUEL takes."""
    layers = [d.observe()]
    while type(layers[-1]) is D.Later and len(layers) <= FUEL:
        layers.append(layers[-1].rest.observe())
    return layers


def shape(layers):
    return [layer.value if type(layer) is D.Now else "later" for layer in layers]


# the loop each back end's nodes step with
LOOPS = {"evaluate": "_eval", "execute": "_run", "evaluate_asked_before": "_eval", "to_delay_of_a_run": "_run"}


@pytest.mark.parametrize("kind", NODE_KINDS)
def test_observe_and_run_fuel_share_each_nodes_step(kind, monkeypatch):
    calls = []
    for name in ("_eval", "_run"):
        monkeypatch.setattr(lang, name, counted(calls, name, getattr(lang, name)))

    # run_fuel first: observe then wraps the node each step led to, once
    d = NODE_KINDS[kind](calls)
    answer = D.run_fuel(d, FUEL)
    ran = list(calls)
    layers = observed(d)
    for layer in layers:
        assert d.observe() is layer
        if type(layer) is D.Later:
            assert layer.rest is d._next()
            d = layer.rest
    assert calls == ran  # every thunk and continuation ran once, in the walk
    if kind in LOOPS:  # the patched loop, and no other, took the steps: ``ran`` is not empty
        assert {tag for tag, _ in ran} == {LOOPS[kind]}

    # observe first: run_fuel then takes the steps observe memoized
    calls.clear()
    d = NODE_KINDS[kind](calls)
    assert shape(observed(d)) == shape(layers)
    ran = list(calls)
    assert D.run_fuel(d, FUEL) == answer
    assert calls == ran
    if kind in LOOPS:
        assert {tag for tag, _ in ran} == {LOOPS[kind]}
