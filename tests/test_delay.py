import pytest
from hypothesis import given, strategies as st

from partiality import delay as D
from helpers import laters_n


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


def test_negative_fuel_is_rejected():
    with pytest.raises(ValueError):
        D.run_fuel(laters_n(D.now(1), 5), -1)


def test_observation_is_memoized():
    calls = []
    d = D.Delay(lambda: calls.append(1) or D.Now(3))
    d.observe()
    d.observe()
    assert calls == [1]


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
        with pytest.raises(ValueError):
            d.observe()


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
