"""Semideciding the sign of an exact real given by rational approximations.

A real is presented as a function ``f : N -> Q`` whose values settle at rate
``-1 < m * (f(m) - f(n)) < 1`` for ``m < n``; two presentations name the
same real iff ``-2 <= n * (f(n) - g(n)) <= 2`` for every ``n``.  Whether the
named real is positive is then semidecidable but not decidable: a zero can
never be told apart from a small-enough nonzero by finitely many queries.

``is_positive`` returns the verdict as a monotone sequence of bits — done
with 1 from the first index that certifies positivity, done with 0 from the
first that certifies non-positivity, pending forever on zero — so all the
fuel-bounded machinery applies unchanged.  A ``const_real``'s ratio is read
when ``is_positive`` is called, and its answer is one chain of known length,
which a scan passes by its count, or ``never()`` for zero.  Any other ``f``,
a wrapper of a ``const_real`` included, is queried once per cell pulled.  The
producer reads a value's ratio only when ``f`` returns another object than at
the last query, so a repeated value is read once and every later query is one
integer comparison.

Bounds are decided on integers, from each value's ``as_integer_ratio()``, so a
real may return any exact-ratio number: ``int``, ``Fraction`` or ``float``.
Both laws decide on integer cross-products: values ``a/b`` and ``c/d`` at
index ``n`` satisfy the same-real criterion iff ``|n * (a*d - c*b)| <= 2*b*d``
and the settling rate iff ``|n * (a*d - c*b)| < b*d``, so no ``Fraction`` is
built and a float is read exactly, never rounded by a subtraction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from math import inf
from typing import Callable

from ._record import _read_int
from .delay import Now, _behind, _check_fuel, never
from .seq import PENDING, Done, Seq

Rational = Fraction

Real = Callable[[int], Rational]

_UNREAD = object()  # no value read yet; any value, None too, is read


def is_positive(f: Real) -> Seq:
    """Positivity of the real named by ``f``, as a sequence of bits.

    Cells stay pending until the first ``n >= 1`` with ``|n * p| > 2 * q``
    for ``f(n) = p / q``, where the settling rate pins the sign of the limit;
    from there every cell is ``Done(1)`` (positive) or ``Done(0)`` (negative),
    and for the zero real none is.  A ``const_real`` is never queried: its
    ratio is read at this call, and the answer is ``of_delay`` of one chain,
    ``2*q // |p| + 1`` steps to ``Now`` of its bit, which a scan passes by
    its count, or of ``never()`` for zero.  Any other ``f``, a wrapper of a
    ``const_real`` included, is queried once per index ``n >= 1`` up to the
    first done one, one query per cell pulled.  A value that is the same
    object as the last one is not read again: its ratio gave
    ``lim = 2*q // |p|``, the last index it leaves pending (``|m*p| > 2*q``
    iff ``m > lim``), so the query is one integer comparison; a zero leaves
    every cell pending.  A value changed in place between queries is read as
    it first was.  A query that raises fails the pull of its cell and leaves
    the cells before it scanned.
    """
    if type(f) is partial and f.func is _const:  # const_real's: a chain of known length, or never()
        p, q = f.args[0].as_integer_ratio()
        return Seq(_behind(2 * q // abs(p) + 2, Now(int(p > 0))) if p else never())

    def produce():
        yield PENDING  # cell 0 needs no query
        last, p, lim = _UNREAD, 0, 0  # the value last read, its numerator, and the last index it leaves pending
        m = 1
        while True:
            x = f(m)
            if x is not last:
                p, q = x.as_integer_ratio()
                last = x
                lim = 2 * q // abs(p) if p else inf  # |m*p| > 2*q iff m > lim
            if m > lim:
                yield Done(int(p > 0))
                return
            yield PENDING
            m += 1

    return Seq(produce)


# ---------------------------------------------------------------------------
# presentations and their laws, fuel-bounded


def _const(q: Rational, _n: int) -> Rational:
    return q


def const_real(q: Rational) -> Real:
    """The real ``q``: the same ``Fraction`` object at every index."""
    return partial(_const, Fraction(q))


def is_cauchy_prefix(f: Real, n: int) -> bool:
    """Check the settling rate on all pairs ``m < k <= n``; ``n`` is a count,
    checked as fuel is."""
    n = _check_fuel(n, "count")
    vals = [f(i) for i in range(n + 1)]
    ratios = [v.as_integer_ratio() for v in vals[1:]]  # f(0) is asked, never compared
    for m, (a, b) in enumerate(ratios, 1):
        for c, d in ratios[m:]:
            if abs(m * (a * d - c * b)) >= b * d:
                return False
    return True


def equiv_within(f: Real, g: Real, fuel: int) -> bool:
    """Check the same-real criterion at every index up to ``fuel``, which is
    checked first, as ``run_fuel`` checks it."""
    fuel = _check_fuel(fuel)
    for n in range(fuel + 1):
        x, y = f(n), g(n)
        a, b = x.as_integer_ratio()
        c, d = y.as_integer_ratio()
        if abs(n * (a * d - c * b)) > 2 * b * d:
            return False
    return True


_RAT = re.compile(r"(-?\d+)(?:/(\d+))?")


def parse_rational(text: str) -> Rational:
    """Parse ``p`` or ``p/q`` with an optional leading minus.

    Stricter than ``Fraction``'s own parser on purpose: no floats, no
    whitespace, no exponent forms — the CLI grammar stays predictable.
    """
    m = _RAT.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational: {text!r}")
    num = _read_int(m.group(1))
    den = m.group(2)
    if den is None:
        return Fraction(num)
    den = _read_int(den)
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)
