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
