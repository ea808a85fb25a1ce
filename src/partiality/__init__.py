"""Tools for computing with partial (possibly non-terminating) results.

The two carriers are ``delay.Delay`` (values behind finitely or infinitely
many observable steps) and ``seq.Seq`` (monotone progress sequences); they
interconvert without losing step counts.  On top of those: fuel-bounded
three-valued checkers for termination, ordering and equivalence, least
upper bounds of chains, least fixed points (``cpo``), a semidecidable sign
test for exact reals (``reals``), and a compiler-correctness case study on
a small lambda calculus (``lang``).
"""

from . import cpo, delay, lang, reals, seq
from .delay import BrokenRunError, Delay, Converged, TIMEOUT, bind as delay_bind, defer, later, never, now, run_fuel
from .seq import (
    ChainViolationError,
    Done,
    MonotonicityError,
    PENDING,
    Seq,
    Verdict,
    Witness,
    bind,
    bisim_within,
    bottom,
    cantor_pair,
    cantor_unpair,
    converges_within,
    from_fn,
    join,
    leq_within,
    lub,
    of_delay,
    shift,
    terminates_with_within,
    to_delay,
    unit,
    unshift,
)

__all__ = [
    "BrokenRunError", "Delay", "Converged", "TIMEOUT", "delay_bind", "defer", "later", "never", "now", "run_fuel",
    "ChainViolationError", "Done", "MonotonicityError", "PENDING", "Seq", "Verdict", "Witness",
    "bind", "bisim_within", "bottom", "cantor_pair", "cantor_unpair", "converges_within",
    "from_fn", "join", "leq_within", "lub", "of_delay", "shift", "terminates_with_within",
    "to_delay", "unit", "unshift",
    "cpo", "delay", "lang", "reals", "seq",
]

__version__ = "0.1.0"
