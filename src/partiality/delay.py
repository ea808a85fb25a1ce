"""Lazily unfolded computations that either finish with a value or take one
more observable step.

A ``Delay`` is observed one layer at a time: ``observe`` returns either
``Now(value)`` or ``Later(rest)``.  Observation is memoized, so probing the
same value repeatedly (or converting it to another representation) never
redoes work, and observation behaves as a pure function.  Nontermination is
representable (``never``) and every observation is productive: it returns
after one layer no matter what the computation does.

``bind`` builds a node that one loop observes: binds waiting on their source
sit on an explicit list, so nesting binds costs no Python frames, and each
node memoizes its own layer, so a node shared by several binds runs once.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from ._record import Record


class Delay:
    """A suspended computation; ``observe`` yields the next layer."""

    __slots__ = ("_thunk", "_observed")

    def __init__(self, thunk: Callable[[], "Now | Later"]):
        self._thunk = thunk
        self._observed = None

    def observe(self) -> "Now | Later":
        # The thunk runs at most once; all later observations reuse the result.
        if self._observed is None:
            self._observed = self._thunk()
            self._thunk = None
        return self._observed


class Now(Record):
    __slots__ = ("value",)


class Later(Record):
    __slots__ = ("rest",)


class Converged(Record):
    __slots__ = ("value", "steps")


class _Timeout:
    __slots__ = ()

    def __repr__(self) -> str:
        return "TIMEOUT"


TIMEOUT = _Timeout()


def now(a: Any) -> Delay:
    return Delay(lambda: Now(a))


def later(d: Delay) -> Delay:
    return Delay(lambda: Later(d))


def defer(k: Callable[[], Delay]) -> Delay:
    """One explicit step, then whatever ``k`` builds.

    The inserted step is what keeps corecursive definitions productive: ``k``
    only runs when the step is observed, so a definition like
    ``loop = defer(lambda: loop)`` unfolds forever instead of hanging.
    """
    return Delay(lambda: Later(k()))


def never() -> Delay:
    """The computation that takes a step, forever."""
    return _NEVER


_NEVER = Delay(lambda: Later(_NEVER))


def run_fuel(d: Delay, fuel: int) -> Converged | _Timeout:
    """Peel at most ``fuel`` steps off ``d``.

    Returns ``Converged(value, steps)`` with the exact number of steps peeled,
    or ``TIMEOUT`` if the value has not appeared yet.  ``TIMEOUT`` is an
    answer, not an error: it says nothing beyond "not within this budget".
    Negative fuel is a ``ValueError``, and fuel that is not an integer a
    ``TypeError``.
    """
    if operator.index(fuel) < 0:
        raise ValueError(f"negative fuel: {fuel}")
    steps = 0
    while True:
        ob = d.observe()
        if isinstance(ob, Now):
            return Converged(ob.value, steps)
        if steps == fuel:
            return TIMEOUT
        d = ob.rest
        steps += 1


def bind(d: Delay, f: Callable[[Any], Delay]) -> Delay:
    """Run ``d``, then feed its value to ``f``.

    Steps add up exactly: no step is created or lost, so the step count of
    the result is the step count of ``d`` plus that of ``f``'s output.
    """
    return _Bind(d, f)


_BUSY = object()  # the layer of a bind while the loop works it out


class _Bind(Delay):
    __slots__ = ("_src", "_f")

    def __init__(self, src: Delay, f: Callable[[Any], Delay]):
        self._src, self._f, self._observed = src, f, None

    def observe(self) -> "Now | Later":
        # The loop.  Binds whose layer is not known yet wait on a list; a bind
        # whose source is done holds f's result in place of both.  After an
        # exception the waiting binds are unobserved again, as they were.
        if self._observed is None:
            d, waiting = self, []
            try:
                while True:
                    while isinstance(d, _Bind) and d._observed is None:
                        d._observed = _BUSY
                        waiting.append(d)
                        d = d._src
                    ob = d.observe()
                    while waiting:
                        b = waiting[-1]
                        f = b._f
                        if f is not None:
                            if isinstance(ob, Now):
                                b._src = d = f(ob.value)  # f leaves the node once it returns
                                b._f = None
                                break
                            ob = Later(_Bind(ob.rest, f))
                        b._observed = ob
                        b._src = b._f = None
                        waiting.pop()
                    else:
                        break
            except BaseException:
                for b in waiting:
                    b._observed = None
                raise
        elif self._observed is _BUSY:
            raise ValueError("a bind needs its own value before it takes a step")
        return self._observed


def map(d: Delay, fn: Callable[[Any], Any]) -> Delay:
    return bind(d, lambda a: now(fn(a)))
