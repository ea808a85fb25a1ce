"""Monotone progress sequences: the canonical carrier for partial results.

A ``Seq`` assigns to every index ``n`` a progress cell: ``PENDING`` while the
computation is still running, ``Done(a)`` from the point it has finished.
Monotonicity (a pending cell may only turn into one fixed done value, which
then persists forever) is what makes fuel-bounded questions meaningful:
scanning a prefix can only under-approximate the limit, never contradict it.

Ordering and equivalence of sequences are undecidable, so the checkers here
return three-valued ``Verdict``s relative to a fuel bound.  ``TRUE`` and
``FALSE`` are only emitted when no larger fuel could overturn them:

* refutation always needs two convergence witnesses with distinct values;
* confirmation needs matching witnesses, or a structural reason that a
  refutation can never appear (the two sides are the same object, or the
  left side is ``bottom()``).

Everything in between is ``UNKNOWN``, which more fuel may still resolve.

Evaluation is lazy, but ``unshift`` takes its argument's first step when
called.  By monotonicity a scanned prefix is described by the number of cells
pulled and the first done cell, all a ``Seq`` keeps beside its source: the
``Delay`` node its scan reached, the producer once pulled, or the failure once
a pull fails, so its memory is O(1).  Every constructor and combinator but
``lub`` builds a ``Delay`` graph, whose nesting, scanned or not, costs no
Python frames, though a scan keeps the nodes of a source the caller holds
unscanned; ``lub`` and ``reals.is_positive`` are the only producers.
``bottom()`` is one sequence, a finished scan with no done cell, so no index
makes it pull; it absorbs (``⊥ >>= f = ⊥``): ``shift``, ``unshift`` and
``bind`` return it as it is.  A producer yields cells in index order and may
stop right after its first done cell, since every later cell is that one; it
may not stop before one.  Before that cell it may yield a positive ``int`` r
for r pending cells in a row, so a run of them costs one step; after it, an
``int`` is not monotone.  A producer may also ask how far the current pull
goes, by yielding the private marker ``_WANT``: it is sent the last index the
pull needs and answers with its next cell or run, so ``reals.is_positive``
answers a whole pull in one loop.  Every other resume is ``next``, so a
producer that never asks is never sent anything.  A non-monotone producer
raises ``MonotonicityError`` at the offending index.  Fuel and indices must be
integers, or it is a ``TypeError``, and not negative, or it is a ``ValueError``.
Use from a single thread.
"""

from __future__ import annotations

from enum import Enum
from math import inf, isqrt
from typing import Any, Callable, Iterator, Optional

from . import delay as D
from ._record import Marker, Record
from .delay import Delay, Now, _behind, _check_fuel, _leap


PENDING = Marker("PENDING", __name__)
_WANT = Marker("_WANT", __name__)  # a producer's ask for the pull's last index
_PULLING = Marker("_PULLING", __name__)  # a Seq's source while a pull runs


class Done(Record):
    __slots__ = ("value",)


class Verdict(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


def verdict_and(a: Verdict, b: Verdict) -> Verdict:
    # false dominates, then unknown, then true
    if a is Verdict.FALSE or b is Verdict.FALSE:
        return Verdict.FALSE
    if a is Verdict.UNKNOWN or b is Verdict.UNKNOWN:
        return Verdict.UNKNOWN
    return Verdict.TRUE


class Witness(Record):
    __slots__ = ("value", "index")


class ChainViolationError(Exception):
    """Two distinct done values turned up while merging a family of sequences.

    Only a family that is not a chain (at most one limit value overall) can
    produce this; the offending cells are kept so the caller can see both.
    """

    def __init__(self, first: tuple[int, int, Any], second: tuple[int, int, Any]):
        self.first = first
        self.second = second
        i1, j1, a = first
        i2, j2, b = second
        super().__init__(
            f"family is not a chain: member {i1} at index {j1} gives {a!r}, "
            f"but member {i2} at index {j2} gives {b!r}"
        )


class MonotonicityError(ValueError):
    """A producer emitted a cell that differs from an earlier done cell."""

    def __init__(self, index: int, cell: Any, first: tuple[int, Any]):
        self.index = index
        self.cell = cell
        self.first = first
        super().__init__(
            f"sequence is not monotone: index {index} gives {cell!r}, "
            f"but index {first[0]} gave {first[1]!r}"
        )


class _Failure(Record):
    # a failed pull's exception and its first traceback, as a Seq's last source
    __slots__ = ("error", "traceback")


class Seq:
    """A lazily produced sequence of progress cells.

    Backed by a ``Delay``, read as ``of_delay`` says, or by a factory for a
    producer that emits cells in index order.  Before its first done cell it
    may emit a positive ``int`` r for a run of r ``PENDING`` cells, which a
    pull may end inside; a zero or negative ``int`` is a ``ValueError``.  It
    may emit ``_WANT`` to ask how far the pull goes: it is then sent the
    pull's last index, and what it yields in return is its next item.  The
    producer may stop right after its first done cell, which completes the
    sequence and drops the producer; stopping before one is an error.  Only
    the count of cells pulled and the first done cell with its index are
    kept; failures, ``MonotonicityError`` and a failing factory included, are
    cached and re-raised with the traceback they first had.  A producer that
    an interrupt or other ``BaseException`` escapes is dead, so later pulls
    raise ``BrokenRunError`` chained from it; the cells it gave stay readable.
    ``_src`` is the node a ``Delay`` scan has reached, or a factory, then its
    producer; it is ``None`` once the sequence is complete and the failure
    once a pull fails.  While a pull runs it is a private marker, so a source
    or producer that reads the sequence it is pulled for fails that pull with
    a ``ValueError``.
    """

    __slots__ = ("_src", "_scanned", "_done", "_done_at")

    def __init__(self, src: "Delay | Callable[[], Iterator]"):
        self._src = src
        self._scanned = 0
        self._done = None
        self._done_at = inf

    def at(self, n: int):
        """The cell at index ``n`` (``Done(value)`` or ``PENDING``)."""
        if type(n) is not int or not 0 <= n < self._scanned:
            n = _check_fuel(n, "index")
            if n >= self._scanned:
                self._pull(n, False)
        return self._done if n >= self._done_at else PENDING

    def _pull(self, n: int, stop_at_done: bool) -> None:
        # Pulls cells through `n`, or to the first done cell if `stop_at_done`.
        # A failing step, producer or factory is cached, and re-raised by later pulls.
        it = self._src
        if type(it) is _Failure:
            raise it.error.with_traceback(it.traceback)
        if it is _PULLING:
            raise ValueError("a sequence was read during its own pull")
        self._src = _PULLING
        k = self._scanned
        done = self._done
        try:
            if isinstance(it, Delay):  # `it` is the node k steps in; none behind it is kept
                try:
                    it, k = _leap(it, k, n)  # the step of the node k steps in
                    while type(it) is not Now and k < n:
                        k += 1
                        it = it._next()
                except StopIteration as stop:  # a failing step, not a finished producer
                    raise RuntimeError("a step raised StopIteration") from stop
                if type(it) is Now:  # the sequence is complete
                    self._done, self._done_at, k, it = Done(it.value), k, inf, None
                else:
                    k += 1  # `it` is the node n + 1 steps in
            elif k == 0:
                it = it()  # the producer: rebinding `it` keeps no source it moves past
            while k <= n:
                p = next(it)
                if p is _WANT:
                    p = it.send(n)
                if done is None:
                    if p is not PENDING:
                        if type(p) is not int:
                            done = self._done = p
                            self._done_at = k
                            if stop_at_done:
                                n = k  # this cell is the last one pulled
                        elif p > 0:
                            k += p - 1  # a run of p pending cells, which may pass n
                        else:
                            raise ValueError(f"producer gave a run of {p} cells at index {k}")
                elif p is not done and p != done:
                    raise MonotonicityError(k, p, (self._done_at, done))
                k += 1
        except StopIteration:
            if done is None:
                err = RuntimeError("sequence producer is not total")
                self._src = _Failure(err, None)
                raise err from None
            k = inf  # done is final: every later cell is the done one
            self._src = None
        except Exception as err:
            self._src = _Failure(err, err.__traceback__)
            raise
        except BaseException as err:  # an interrupt: a Delay keeps its rule, a factory is put back
            if not (isinstance(it, Delay) or callable(it)):  # a producer it escaped is dead
                broken = D.BrokenRunError("a sequence producer raised, and cannot be resumed")
                broken.__cause__ = err
                self._src = _Failure(broken, None)
            raise
        finally:
            self._scanned = k
            if self._src is _PULLING:
                self._src = it


# ---------------------------------------------------------------------------
# constructors


def unit(a: Any) -> Seq:
    return Seq(D.now(a))


# A finished scan with no done cell: no index can make it pull from its source.
_BOTTOM = Seq(D.never())
_BOTTOM._scanned = inf


def bottom() -> Seq:
    """The sequence that never converges; there is one, as ``D.never()`` is one."""
    return _BOTTOM


def from_fn(fn: Callable[[int], Any]) -> Seq:
    """Wrap an arbitrary index function into a monotone sequence: a ``Delay``
    step chain, a node per pending index and ``Now(value)`` at the first done
    one, so ``fn`` is called at 0, 1, ... in order and not past that index."""
    return Seq(_cells(fn, 0))


def shift(s: Seq) -> Seq:
    return s if s is _BOTTOM else Seq(D.later(to_delay(s)))


def unshift(s: Seq) -> Seq:
    """``s`` one step sooner: the first step of ``to_delay(s)``, taken now.
    If it is ``Now``, ``s`` is done everywhere and is its own answer."""
    if s is _BOTTOM:
        return s
    step = to_delay(s)._next()
    return s if type(step) is Now else Seq(step)


# ---------------------------------------------------------------------------
# conversions to and from Delay


def of_delay(d: Delay) -> Seq:
    """The sequence view of a delayed computation.

    Index ``n`` is done exactly when the computation finishes within ``n``
    observation steps, so an immediate value is done everywhere and each
    extra step shifts the sequence by one.  A scan keeps only the current
    step alive, not ``d``, so its memory is O(1) however far it goes.
    """
    return Seq(d)


def to_delay(s: Seq) -> Delay:
    """The delayed view of a sequence, one step per pending cell: while its
    source is a ``Delay``, the node its scan reached behind a step per cell
    scanned (so an unscanned ``s`` gives its ``Delay``), else ``_cells`` over ``s.at``."""
    return _behind(s._scanned, s._src) if isinstance(s._src, Delay) else _cells(s.at, 0)


def _cells(fn: Callable[[int], Any], n: int) -> Delay:
    # a step per pending cell of `fn` from index `n`, then `Now` at its first done one
    return Delay(lambda: _cells(fn, n + 1) if (p := fn(n)) is PENDING else Now(p.value))


# ---------------------------------------------------------------------------
# observation


def converges_within(s: Seq, fuel: int) -> Optional[Witness]:
    """Least index ``<= fuel`` at which ``s`` is done, or ``None``.

    Monotonicity makes the witness value unique, and producing cells in
    order makes the returned index minimal.  Cells are pulled only up to the
    first done one, so a convergent sequence is never forced past its
    convergence index.  Negative fuel is a ``ValueError``, and fuel that is
    not an integer a ``TypeError``.
    """
    fuel = _check_fuel(fuel)
    if s._done is None and s._scanned <= fuel:
        s._pull(fuel, True)
    return Witness(s._done.value, s._done_at) if s._done_at <= fuel else None


def terminates_with_within(s: Seq, a: Any, fuel: int) -> Verdict:
    """Does ``s`` finish with exactly ``a``?  Three-valued, fuel-bounded.

    A witness for a different value refutes for good: by monotonicity the
    sequence can never agree with ``a`` later.  No witness at all leaves the
    question open, never refuted — divergence cannot be confirmed.
    """
    w = converges_within(s, fuel)
    if w is None:
        return Verdict.UNKNOWN
    return Verdict.TRUE if w.value == a else Verdict.FALSE


# ---------------------------------------------------------------------------
# monad structure


def bind(s: Seq, f: Callable[[Any], Seq]) -> Seq:
    """Sequence ``f`` after ``s``, composing convergence indices additively.

    If ``s`` is first done at index ``k`` with value ``a``, the result at
    index ``n >= k`` is ``f(a)`` at index ``n - k``; before that it is
    pending.  It is ``Delay`` bind on the delayed views, so the sequence
    view and the delayed view of a composed computation agree cell for cell.
    """
    return s if s is _BOTTOM else Seq(D.bind(to_delay(s), lambda a: to_delay(f(a))))


def map(s: Seq, fn: Callable[[Any], Any]) -> Seq:
    return bind(s, lambda a: unit(fn(a)))


def join(ss: Seq) -> Seq:
    return bind(ss, lambda s: s)


# ---------------------------------------------------------------------------
# fuel-bounded order and equivalence


def leq_within(s: Seq, t: Seq, fuel: int) -> Verdict:
    """Is every value ``s`` can finish with one that ``t`` finishes with too?

    Fuel-bounded and three-valued, with ``TRUE``/``FALSE`` final (negative
    fuel is a ``ValueError`` and non-integer fuel a ``TypeError``, whatever
    the two sides are):

    * ``TRUE`` when both sides converge within fuel to equal values, or when
      the question is settled structurally (same object; or ``s`` is
      ``bottom()``, making the claim vacuous).
    * ``FALSE`` when both sides converge within fuel to distinct values —
      the one shape of refutation two finite witnesses can establish.
    * ``UNKNOWN`` otherwise; in particular a converged left against a silent
      right stays unknown forever, since divergence cannot be confirmed.

    ``s`` is scanned first, ``t`` only if ``s`` converged, and neither if ``t``
    is ``bottom()``; a side that is not scanned is not asked, nor its failure raised.
    """
    fuel = _check_fuel(fuel)
    if s is t or s is _BOTTOM:
        return Verdict.TRUE
    if t is _BOTTOM:
        return Verdict.UNKNOWN
    ws = converges_within(s, fuel)
    if ws is None:
        return Verdict.UNKNOWN
    wt = converges_within(t, fuel)
    if wt is None:
        return Verdict.UNKNOWN
    return Verdict.TRUE if ws.value == wt.value else Verdict.FALSE


def bisim_within(s: Seq, t: Seq, fuel: int) -> Verdict:
    """Fuel-bounded equivalence: both orderings, conjoined three-valuedly.
    Each side is scanned at most once, ``s`` first; once one is silent through
    ``fuel`` the answer is ``UNKNOWN``, and nothing more is scanned or raised."""
    st = leq_within(s, t, fuel)  # UNKNOWN: a side is silent, so `t <= s` cannot be FALSE
    return st if st is Verdict.UNKNOWN else verdict_and(st, leq_within(t, s, fuel))


# ---------------------------------------------------------------------------
# least upper bounds of countable families


def cantor_pair(i: int, j: int) -> int:
    i, j = _check_fuel(i, "index"), _check_fuel(j, "index")
    return (i + j) * (i + j + 1) // 2 + j


def cantor_unpair(k: int) -> tuple[int, int]:
    k = _check_fuel(k, "index")
    w = (isqrt(8 * k + 1) - 1) // 2
    j = k - w * (w + 1) // 2
    return w - j, j


def lub(family: Callable[[int], Seq]) -> Seq:
    """Merge a countable chain of sequences into one.

    Cell ``n`` of the result looks at the first ``n + 1`` entries of the
    family's cell table, taken along Cantor's diagonals (``(0, 0), (1, 0),
    (0, 1), (2, 0), …``, which keeps witness indices quadratically bounded;
    member ``i`` is built at ``(i, 0)``), and reports the first done value
    seen so far.  First-wins keeps witness indices minimal; under the chain
    precondition (at most one done value in the whole table) the choice of
    representative cannot matter.

    The precondition is not checked up front: if the scan ever meets a
    second, different done value, ``ChainViolationError`` is raised from the
    offending cell, naming both witnesses.  That check is why this producer,
    unlike the others, keeps scanning the table after its done cell.

    Members that are ``bottom()`` itself are pending at every index.  While
    no done cell has been seen, the leading ones (members ``0 .. low - 1``)
    are passed over a diagonal at a time: from a cell ``(i, j)`` with
    ``i < low`` the rest of the diagonal is one run of ``i + 1`` pending
    cells.  Members are still built at ``(i, 0)`` and other cells still read
    in order, so a chain that starts at ⊥, as ``cpo.lfp``'s does, pays for
    its members, not for every cell before its first done one.
    """

    def produce():
        members: list[Seq] = []
        low = 0  # members below are bottom() itself, until a done cell is seen
        first: Optional[tuple[int, int, Any]] = None
        cell = PENDING
        i = j = 0
        while True:
            if i == len(members):
                members.append(m := family(i))
                if m is _BOTTOM and i == low:
                    low += 1
            if i < low:  # the rest of this diagonal reads bottom members only
                yield i + 1
                i, j = i + j + 1, 0
                continue
            p = members[i].at(j)
            if p is not PENDING:
                if first is None:
                    first = (i, j, p.value)
                    cell = Done(p.value)
                    low = 0  # a done result is yielded cell by cell
                elif p.value != first[2]:
                    raise ChainViolationError(first, (i, j, p.value))
            yield cell
            i, j = (j + 1, 0) if i == 0 else (i - 1, j + 1)

    return Seq(produce)


# ---------------------------------------------------------------------------
# diagnostics


def ismon_prefix(s: Seq, n: int) -> bool:
    """Check monotonicity on the first ``n`` cells, which pulling them checks;
    ``n`` is a count, checked as fuel is."""
    n = _check_fuel(n, "count")
    try:
        if n > 0:
            s.at(n - 1)
    except MonotonicityError:
        return False
    return True
