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
steps in place, and ``_enter`` is its one entry: it runs the loop once with
a budget, and the node's step becomes the chain of the steps taken
(``_Behind``), each built only when the one before is stepped; stepping the
node enters it with budget 0.  ``run_fuel``, and a ``seq`` scan through the
same helper, leaps before it walks: it enters a step node that nobody has
stepped with the fuel left and follows a step node to its step, passes a
chain, stepped or not, at once by its count, and answers ``never()`` with
``TIMEOUT`` at any fuel.  So a run builds no node per step, and a caller
that holds its head, and asks again, keeps O(1) of them.  The first node
that is none of these is walked one step at a time, as is all after it, a
step node too: the walk pays nothing for the leap.  A step node whose loop
raised raises ``BrokenRunError`` when asked again, and a thunk or a bind
that needs its own node's step a ``ValueError``.

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
        # While the thunk runs the step is ``_running``; if it raises, the thunk is put back.
        thunk = self._step
        if not callable(thunk):
            return thunk
        self._step = _running
        try:
            step = thunk()
        except BaseException:
            self._step = thunk
            raise
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


def _running():
    # a node's step while its thunk or the bind loop runs: a thunk or a bind that needs it calls this
    raise ValueError("a thunk or a bind needs its own step before it takes it")


def run_fuel(d: Delay, fuel: int) -> Converged | Marker:
    """Peel at most ``fuel`` steps off ``d``.

    Returns ``Converged(value, steps)`` with the exact number of steps peeled,
    or ``TIMEOUT`` if the value has not appeared yet.  ``TIMEOUT`` is an
    answer, not an error: it says nothing beyond "not within this budget".
    Negative fuel is a ``ValueError``, and fuel that is not an integer a
    ``TypeError``.
    """
    fuel = _check_fuel(fuel)
    if type(d) is _Call and d._machine is not None:  # the loop's own answer: no second Converged
        r = d._enter(fuel)
        return TIMEOUT if type(r) is _Call else r
    d, steps = _leap(d, 0, fuel)
    while type(d) is not Now:
        if steps == fuel:
            return TIMEOUT
        steps += 1
        d = d._next()
    return Converged(d.value, steps)


def _leap(d: Delay, steps: int, fuel: int) -> "tuple[Now | Delay, int]":
    # The step of a node at most `fuel` in, and how far in that node is, from
    # `d`, the node `steps` in (`steps <= fuel`).  It passes at once a `_Behind`
    # by its count, stepped or not, a run's loop and never(), and stops at the
    # first node that is none of those, with its step; a walk goes on from there.
    while True:
        ty = type(d)
        if ty is _Call:  # a run: its loop, once, if nobody has stepped it; then its kept step
            if d._machine is not None:
                d._enter(fuel - steps)  # its step is the chain that the next turns pass
            step = d._step
            if type(step) is Now or steps == fuel:
                return step, steps
            d, steps = step, steps + 1
        elif ty is _Behind:  # k steps to `to`, stepped or not: its count never changes
            k, to = d._k, d._d
            if type(to) is Now or steps + k > fuel:  # it ends inside the chain
                j = min(k - 1, fuel - steps)
                return _behind(k - 1 - j, to), steps + j
            d, steps = to, steps + k
        elif d is _NEVER:
            return d, fuel
        else:
            return d._next(), steps


def _behind(k: int, d: "Now | Delay") -> "Now | Delay":
    # `k` steps, then `d`; never() stays itself
    return d if k == 0 or d is _NEVER else _Behind(k, d)


class _Behind(Delay):
    """``k`` steps, then ``d``, a ``Now`` or a node: a loop's steps, a scan's,
    or a constant real's sign.  Stepped, it builds the same chain one step
    shorter; ``_leap`` passes it by its count, stepped or not, building none."""

    __slots__ = ("_k", "_d")

    def __init__(self, k: int, d: "Now | Delay"):
        self._k, self._d = k, d
        self._step = self._layer = None

    def _next(self) -> "Now | Delay":
        if self._step is None:
            self._step = _behind(self._k - 1, self._d)
        return self._step


class BrokenRunError(RuntimeError):
    """A step of a ``lang`` run whose loop raised, or a ``seq`` producer that
    a ``BaseException`` such as an interrupt escaped, asked again: the run's
    machine is half updated and the producer dead.  The exception is the cause."""


def _broken(err: BaseException, env, machine, budget: int):
    # the loop of a node whose loop raised `err`, which the node keeps as its code
    raise BrokenRunError("a step of this run raised, and left its machine half updated") from err


class _Call(Delay):
    """A step of a run of a back end: the code or term and the environment a
    call enters, and the run's machine, which all of its steps share.  As a
    ``Delay`` keeps its thunk in ``_step`` until it runs, the node keeps its
    loop there until its step runs.  ``loop(code, env, machine, budget)``
    runs through up to ``budget`` steps in place and returns the node of the
    step after them, or ``Converged(value, steps taken)``.  ``_enter`` is
    the one way in: it runs the loop once, with the fuel left as the budget,
    and the node's step becomes the steps the loop took, a ``_Behind`` chain
    ending at the node it stopped at or at the value.  A node's step is its
    loop with budget 0, so ``_next`` enters it with 0.  ``run_fuel`` returns
    the loop's ``Converged`` as it is.
    Either way only the node the loop stopped at can reach the machine, and
    a held head keeps no node that ``run_fuel`` passed.  A loop that raises
    leaves the machine half updated, so the node keeps the exception as its
    code and ``_broken`` as its loop, which raises ``BrokenRunError``."""

    __slots__ = ("_code", "_env", "_machine")

    def __init__(self, loop, code, env: tuple, machine):
        self._code, self._env, self._machine = code, env, machine
        self._step, self._layer = loop, None

    def _next(self) -> "Now | Delay":
        # the step: the loop with budget 0, if nobody has stepped the node
        if self._machine is not None:
            self._enter(0)
        return self._step

    def _enter(self, budget: int) -> "Converged | _Call":
        # the loop, run once with `budget`; the node's step becomes the steps
        # it took, and one that raises leaves the node broken for good
        try:
            r = self._step(self._code, self._env, self._machine, budget)
        except BaseException as err:
            if self._step is not _broken:
                self._step, self._code = _broken, err
            raise
        self._code = self._env = self._machine = None
        self._step = _behind(budget, r) if type(r) is _Call else _behind(r.steps, Now(r.value))
        return r


def bind(d: Delay, f: Callable[[Any], Delay]) -> Delay:
    """Run ``d``, then feed its value to ``f``.

    Steps add up exactly: no step is created or lost, so the step count of
    the result is the step count of ``d`` plus that of ``f``'s output.
    """
    return _Bind(d, f)


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
                        d._step = _running
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
        elif self._step is _running:
            _running()
        return self._step


def map(d: Delay, fn: Callable[[Any], Any]) -> Delay:
    return bind(d, lambda a: now(fn(a)))
