"""Lazily unfolded computations that either finish with a value or take one
more observable step.

A ``Delay`` is observed one layer at a time: ``observe`` returns either
``Now(value)`` or ``Later(rest)``.  Observation is memoized, so probing the
same value repeatedly (or converting it to another representation) never
redoes work, and observation behaves as a pure function.  Nontermination is
representable (``never``) and every observation is productive: it returns
after one layer no matter what the computation does.

What a node memoizes is its step: ``Now(value)``, or the next ``Delay``
itself.  The package's own walkers (``run_fuel``, the bind loop, the ``seq``
scans and ``lang``'s step nodes) take steps through ``_next`` and build no
``Later``; ``observe`` wraps the next node in one the first time it is asked,
and keeps that one, so a walk costs one object per step.

A ``lang`` back end's step node (``_Call``) keeps a loop that runs many
steps in place.  Given such a node that nobody has stepped yet, ``run_fuel``
runs its loop once with the whole fuel and leaves the node's step as a chain
of the steps taken, each built only when the one before is stepped; so it
builds no node per step, and a caller that holds the node keeps O(1) of
them.  It tests for that node once, before its walk, so a walk over any
other node pays nothing for it; a step node met during a walk is stepped
one node at a time.

``bind`` builds a node that one loop observes: binds waiting on their source
sit on an explicit list, so nesting binds costs no Python frames, and each
node memoizes its own step, so a node shared by several binds runs once.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from ._record import Marker, Record, _int_text


class Delay:
    """A suspended computation; ``observe`` yields the next layer.

    ``step`` is a thunk that returns the first layer, ``Now(value)`` or
    ``Later(rest)``, or the next ``Delay`` itself, which stands for ``Later``
    of it; it runs at most once.  Neither a ``Now`` nor a node is callable,
    so an argument that is not callable is the step itself: ``now(a)`` is
    ``Delay(Now(a))`` and ``later(d)`` is ``Delay(d)``.  ``_step`` holds the
    thunk until it has run, then the step; ``_layer`` holds what ``observe``
    returned, once it has been asked.
    """

    __slots__ = ("_step", "_layer")

    def __init__(self, step: "Now | Delay | Callable[[], Now | Later | Delay]"):
        self._step, self._layer = step, None

    def _next(self) -> "Now | Delay":
        # The step: ``Now(value)``, or the next node, with no ``Later`` built.
        step = self._step
        if callable(step):  # the thunk, not run yet
            step = step()
            if type(step) is Later:
                self._layer, step = step, step.rest
            self._step = step
        return step

    def observe(self) -> "Now | Later":
        # Built from the step on the first call; later calls return the same layer.
        layer = self._layer
        if layer is None:
            step = self._next()
            layer = self._layer = step if type(step) is Now else Later(step)
        return layer


class Now(Record):
    __slots__ = ("value",)


class Later(Record):
    __slots__ = ("rest",)


class Converged(Record):
    __slots__ = ("value", "steps")


TIMEOUT = Marker("TIMEOUT", __name__)


def now(a: Any) -> Delay:
    return Delay(Now(a))


def later(d: Delay) -> Delay:
    return Delay(d)


def defer(k: Callable[[], Delay]) -> Delay:
    """One explicit step, then whatever ``k`` builds.

    The inserted step is what keeps corecursive definitions productive: ``k``
    only runs when the step is observed, so a definition like
    ``loop = defer(lambda: loop)`` unfolds forever instead of hanging.
    """
    return Delay(k)


def never() -> Delay:
    """The computation that takes a step, forever."""
    return _NEVER


_NEVER = Delay(None)
_NEVER._step = _NEVER  # its step is itself


def _check_fuel(fuel: int, name: str = "fuel") -> int:
    # the one rule for fuel and every other count: an integer, or a TypeError,
    # and not negative; its int is the count
    if (n := operator.index(fuel)) < 0:
        raise ValueError(f"negative {name}: {_int_text(n)}")
    return n


def run_fuel(d: Delay, fuel: int) -> Converged | Marker:
    """Peel at most ``fuel`` steps off ``d``.

    Returns ``Converged(value, steps)`` with the exact number of steps peeled,
    or ``TIMEOUT`` if the value has not appeared yet.  ``TIMEOUT`` is an
    answer, not an error: it says nothing beyond "not within this budget".
    Negative fuel is a ``ValueError``, and fuel that is not an integer a
    ``TypeError``.
    """
    fuel = _check_fuel(fuel)
    if type(d) is _Call and d._machine is not None:  # a back end's loop, run once
        return d._enter(fuel)
    steps = 0
    while type(d := d._next()) is not Now:
        if steps == fuel:
            return TIMEOUT
        steps += 1
    return Converged(d.value, steps)


def _behind(k: int, d: "Now | Delay") -> "Now | Delay":
    # `k` steps, then `d`, each node built as the one before is stepped; never() stays itself
    return d if k == 0 or d is _NEVER else Delay(lambda: _behind(k - 1, d))


class _Call(Delay):
    """A step of a run of a back end: the code or term and the environment a
    call enters, and the run's machine, which all of its steps share.  As a
    ``Delay`` keeps its thunk in ``_step`` until it runs, the node keeps its
    loop there until its step runs.  ``loop(code, env, machine, budget)``
    runs through up to ``budget`` steps in place and returns the node of the
    step after them, or ``Converged(value, steps taken)``, which is
    ``run_fuel``'s answer.  A node's step is its loop with budget 0;
    ``run_fuel`` runs the loop of the node it is given once, with the whole
    fuel as the budget, and the node's step becomes the steps the loop took,
    each built only when the one before is stepped, ending at the node it
    stopped at or at the value.  Either way only the node the loop stopped
    at can reach the machine, and a held head keeps no node that
    ``run_fuel`` passed."""

    __slots__ = ("_code", "_env", "_machine")

    def __init__(self, loop, code, env: tuple, machine):
        self._code, self._env, self._machine = code, env, machine
        self._step, self._layer = loop, None

    def _next(self) -> "Now | Delay":
        # the step ``_enter(0)`` leaves, without its chain call: a walk pays this per step
        if self._machine is not None:
            r = self._step(self._code, self._env, self._machine, 0)
            self._step = r if type(r) is _Call else Now(r.value)
            self._code = self._env = self._machine = None
        return self._step

    def _enter(self, budget: int) -> Converged | Marker:
        r = self._step(self._code, self._env, self._machine, budget)
        self._code = self._env = self._machine = None
        if type(r) is _Call:
            self._step = _behind(budget, r)
            return TIMEOUT
        self._step = _behind(r.steps, Now(r.value))
        return r


def bind(d: Delay, f: Callable[[Any], Delay]) -> Delay:
    """Run ``d``, then feed its value to ``f``.

    Steps add up exactly: no step is created or lost, so the step count of
    the result is the step count of ``d`` plus that of ``f``'s output.
    """
    return _Bind(d, f)


_BUSY = object()  # the step of a bind while the loop works it out


class _Bind(Delay):
    __slots__ = ("_src", "_f")

    def __init__(self, src: Delay, f: Callable[[Any], Delay]):
        self._src, self._f = src, f
        self._step = self._layer = None

    def _next(self) -> "Now | Delay":
        # The loop.  Binds whose step is not known yet wait on a list; a bind
        # whose source is done holds f's result in place of both, and a source
        # that steps to a node steps each waiting bind to a bind on that node.
        # After an exception the waiting binds are unstepped again, as they were.
        if self._step is None:
            d, waiting = self, []
            try:
                while True:
                    while isinstance(d, _Bind) and d._step is None:
                        d._step = _BUSY
                        waiting.append(d)
                        d = d._src
                    step = d._next()
                    while waiting:
                        b = waiting[-1]
                        f = b._f
                        if f is not None:
                            if type(step) is Now:
                                b._src = d = f(step.value)  # f leaves the node once it returns
                                b._f = None
                                break
                            step = _Bind(step, f)
                        b._step = step
                        b._src = b._f = None
                        waiting.pop()
                    else:
                        break
            except BaseException:
                for b in waiting:
                    b._step = None
                raise
        elif self._step is _BUSY:
            raise ValueError("a bind needs its own value before it takes a step")
        return self._step


def map(d: Delay, fn: Callable[[Any], Any]) -> Delay:
    return bind(d, lambda a: now(fn(a)))
