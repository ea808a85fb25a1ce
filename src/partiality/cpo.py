"""Least fixed points of monotone functionals over partial functions.

A functional maps partial functions ``A -> Seq`` to partial functions; its
least fixed point is obtained the classical way, as the merge of the chain
of finite unrollings starting from the everywhere-undefined function.  The
merge is ``seq.lub``, so a converging application carries an explicit
witness index, and applying the fixed point never commits to a recursion
depth up front.

``search`` is the canonical client: unbounded linear search over a stream,
written as the fixed point of its one-step unrolling.
"""

from __future__ import annotations

from typing import Any, Callable

from . import seq
from .delay import _check_fuel
from .seq import Seq


def bottom_fun(_a: Any) -> Seq:
    """The least partial function: undefined everywhere."""
    return seq.bottom()


def iterate(phi: Callable, n: int) -> Callable:
    """The ``n``-th unrolling ``phi^n`` applied to the undefined function;
    ``n`` is a count, checked as fuel is."""
    n = _check_fuel(n, "count")
    f = bottom_fun
    for _ in range(n):
        f = phi(f)
    return f


def lfp(phi: Callable) -> Callable[[Any], Seq]:
    """Least fixed point of a monotone functional on ``A -> Seq``.

    ``lfp(phi)(a)`` merges the chain ``n |-> phi^n(undefined)(a)``.
    Monotonicity of ``phi`` is the caller's obligation; it is exactly what
    makes that family a chain, and a non-monotone ``phi`` will surface as a
    ``ChainViolationError`` when two unrollings disagree.

    Unrollings are built incrementally and shared across applications, so
    asking for a deep cell costs each ``phi`` step once.
    """
    approx: list[Callable] = [bottom_fun]

    def unrolling(n: int) -> Callable:
        while len(approx) <= n:
            approx.append(phi(approx[-1]))
        return approx[n]

    def fixed(a: Any) -> Seq:
        return seq.lub(lambda n: unrolling(n)(a))

    return fixed


# ---------------------------------------------------------------------------
# streams and unbounded search


class Stream:
    """An infinite cons stream.  ``_tail`` holds the tail's thunk until the
    tail is forced, then the tail itself, so the thunk is dropped."""

    __slots__ = ("head", "_tail")

    def __init__(self, head: Any, tail_thunk: Callable[[], "Stream"]):
        self.head = head
        self._tail: "Stream | Callable[[], Stream]" = tail_thunk

    @property
    def tail(self) -> "Stream":
        if not isinstance(self._tail, Stream):
            self._tail = self._tail()
        return self._tail


def stream_iterate(start: Any, step: Callable[[Any], Any]) -> Stream:
    """The stream start, step(start), step(step(start)), ..."""
    return Stream(start, lambda: stream_iterate(step(start), step))


def stream_prefix(xs: Stream, n: int) -> list:
    """The first ``n`` elements of ``xs``; ``n`` is a count, checked as fuel is."""
    n = _check_fuel(n, "count")
    out = []
    for i in range(n):
        out.append(xs.head)
        if i + 1 < n:  # don't force the tail past the last element taken
            xs = xs.tail
    return out


def search(q: Callable[[Any], bool], xs: Stream) -> Seq:
    """First element of ``xs`` satisfying ``q``, as a partial result.

    Defined as the least fixed point of the one-step unrolling: test the
    head, otherwise recurse on the tail.  If no element ever satisfies
    ``q`` the result stays pending at every index.
    """

    def phi(f: Callable[[Stream], Seq]) -> Callable[[Stream], Seq]:
        def step(s: Stream) -> Seq:
            if q(s.head):
                return seq.unit(s.head)
            # a forced tail is read from its slot, without the property call
            tail = s._tail
            return f(tail if type(tail) is Stream else s.tail)

        return step

    return lfp(phi)(xs)
