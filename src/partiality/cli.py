"""Command line front end.

Exit codes, uniformly: 0 a definite answer, 1 bad input (a usage error, an
unreadable program file, negative fuel or count, or failed law suites), 2 out
of fuel with nothing decided, 3 a run that got stuck.

``run``/``vm``/``compile`` accept either a file name or literal program
text; ``laws`` replays the seeded property suites without pytest.

``main`` reads the plain question forms itself: ``run``, ``vm``, ``compile``,
``ispositive`` or ``search``, then exactly that subcommand's operands, then
optionally ``--fuel N``, with no operand or ``N`` starting with ``-`` but for
a negative number such as ``-3/2`` or ``-5:3`` given to ``ispositive`` or
``search``.  Every other argv goes to argparse, which reads these forms the
same way, so the output, help and usage errors are the same bytes either way.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
from typing import Callable

from . import cpo, delay, lang, reals, seq
from ._record import _int_text, _read_int
from .delay import TIMEOUT, _check_fuel
from .seq import ChainViolationError, Verdict

DEFAULT_FUEL = 1000


def _read_program(arg: str) -> str:
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    return arg


def _parse_term(arg: str):
    return lang.parse(_read_program(arg))


# ---------------------------------------------------------------------------
# run / vm / compile


def _report_run(r, fuel: int) -> int:
    if r is TIMEOUT:
        print(f"timeout fuel={_int_text(fuel)}")
        return 2
    if r.value is lang.STUCK:
        print("stuck")
        return 3
    print(f"now {lang.render_value(r.value)} steps={r.steps}")
    return 0


def cmd_run(args) -> int:
    t = _parse_term(args.program)
    return _report_run(lang.run(t, args.fuel), args.fuel)


def cmd_vm(args) -> int:
    code = lang.compile_term(_parse_term(args.program))
    return _report_run(lang.run_code(code, args.fuel), args.fuel)


def cmd_compile(args) -> int:
    print("\n".join(lang.disassemble(lang.compile_term(_parse_term(args.program)))))
    return 0


# ---------------------------------------------------------------------------
# ispositive / search


def _report_witness(s, fuel: int, show: Callable) -> int:
    w = seq.converges_within(s, fuel)
    if w is None:
        print(f"unknown fuel={_int_text(fuel)}")
        return 2
    print(f"{show(w.value)} index={w.index}")
    return 0


def cmd_ispositive(args) -> int:
    s = reals.is_positive(reals.const_real(reals.parse_rational(args.rational)))
    return _report_witness(s, args.fuel, lambda v: "positive" if v == 1 else "negative")


_PREDS: dict[str, Callable[[int], Callable[[int], bool]]] = {
    "even": lambda _: lambda x: x % 2 == 0,
    "odd": lambda _: lambda x: x % 2 == 1,
    "gt": lambda n: lambda x: x > n,
    "ge": lambda n: lambda x: x >= n,
    "lt": lambda n: lambda x: x < n,
    "le": lambda n: lambda x: x <= n,
    "eq": lambda n: lambda x: x == n,
}


def _parse_pred(text: str) -> Callable[[int], bool]:
    name, _, rest = text.partition(":")
    if name not in _PREDS:
        raise ValueError(f"unknown predicate {text!r} (try even, odd, gt:N, ge:N, lt:N, le:N, eq:N)")
    if name in ("even", "odd"):
        if rest:
            raise ValueError(f"predicate {name!r} takes no argument")
        return _PREDS[name](0)
    if not rest:
        raise ValueError(f"predicate {name!r} needs an argument, e.g. {name}:10")
    return _PREDS[name](_read_int(rest))


def _parse_stream(text: str) -> cpo.Stream:
    start, _, step = text.partition(":")
    a, d = _read_int(start), _read_int(step) if step else 1
    return cpo.stream_iterate(a, lambda x: x + d)


def cmd_search(args) -> int:
    q = _parse_pred(args.predicate)
    xs = _parse_stream(args.stream)
    return _report_witness(cpo.search(q, xs), args.fuel, lambda v: f"found {_int_text(v)}")


# ---------------------------------------------------------------------------
# laws: seeded re-runnable property suites


def _rand_seq(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return seq.bottom()
    if kind == 1:
        return seq.unit(rng.randrange(4))
    s = _rand_seq(rng)
    if kind in (2, 3):
        return seq.shift(s)
    if kind == 4:
        return seq.bind(s, lambda a: seq.unit(a + 1))
    return seq.unshift(seq.shift(s))


def _prefix(s, n: int) -> list:
    return [s.at(i) for i in range(n)]


def _law_order(rng: random.Random) -> bool:
    s, t, u = _rand_seq(rng), _rand_seq(rng), _rand_seq(rng)
    fuel = rng.randrange(1, 40)
    return (
        seq.leq_within(s, s, fuel) is Verdict.TRUE
        and seq.leq_within(seq.bottom(), s, fuel) is Verdict.TRUE
        and seq.ismon_prefix(s, fuel)
        and (  # transitivity
            seq.leq_within(s, t, fuel) is not Verdict.TRUE
            or seq.leq_within(t, u, fuel) is not Verdict.TRUE
            or seq.leq_within(s, u, fuel) is not Verdict.FALSE
        )
    )


def _law_unit_injective(rng: random.Random) -> bool:
    a, b = rng.randrange(8), rng.randrange(8)
    v = seq.bisim_within(seq.unit(a), seq.unit(b), rng.randrange(1, 20))
    return v is (Verdict.TRUE if a == b else Verdict.FALSE)


def _law_flat(rng: random.Random) -> bool:
    a, b = rng.randrange(6), rng.randrange(6)
    fuel = rng.randrange(1, 20)
    return (
        seq.leq_within(seq.unit(a), seq.unit(b), fuel)
        is (Verdict.TRUE if a == b else Verdict.FALSE)
        and seq.leq_within(seq.unit(a), seq.bottom(), fuel) is Verdict.UNKNOWN
        and seq.leq_within(seq.bottom(), seq.unit(a), fuel) is Verdict.TRUE
    )


def _law_monad(rng: random.Random) -> bool:
    a = rng.randrange(5)
    k1, k2 = rng.randrange(4), rng.randrange(4)
    f = lambda x: _shift_n(seq.unit(x + 1), k1)
    g = lambda x: _shift_n(seq.unit(x * 2), k2)
    s = _shift_n(seq.unit(a), rng.randrange(4))
    n = 16
    return (
        _prefix(seq.bind(seq.unit(a), f), n) == _prefix(f(a), n)
        and _prefix(seq.bind(s, seq.unit), n) == _prefix(s, n)
        and _prefix(seq.bind(seq.bind(s, f), g), n)
        == _prefix(seq.bind(s, lambda x: seq.bind(f(x), g)), n)
    )


def _shift_n(s, k: int):
    for _ in range(k):
        s = seq.shift(s)
    return s


def _law_roundtrip(rng: random.Random) -> bool:
    k = rng.randrange(6)
    s = _shift_n(seq.unit(rng.randrange(9)), k)
    good = _prefix(seq.of_delay(seq.to_delay(s)), 12) == _prefix(s, 12)
    r = delay.run_fuel(seq.to_delay(_shift_n(seq.unit(7), k)), 10)
    return good and r is not TIMEOUT and r.value == 7 and r.steps == k


def _law_lub(rng: random.Random) -> bool:
    stage = rng.randrange(1, 7)
    val = rng.randrange(9)
    lift = rng.randrange(4)

    def member(i):
        return _shift_n(seq.unit(val), lift) if i >= stage else seq.bottom()

    fuel = 120
    got = seq.converges_within(seq.lub(member), fuel)
    # oracle: scan the family table in the same diagonal order directly
    for n in range(fuel + 1):
        i, j = seq.cantor_unpair(n)
        if i >= stage and j >= lift:
            return got is not None and (got.value, got.index) == (val, n)
    return False


def _law_lub_guard(rng: random.Random) -> bool:
    # a non-monotone functional must be caught by the merge, not silently averaged
    flip = [rng.randrange(4)]

    def phi(f):
        flip[0] += 1
        c = flip[0]
        return lambda x: seq.unit(c)

    bad = cpo.lfp(phi)(0)
    try:
        _prefix(bad, 30)  # the error is lazy: only a scan that reaches the clash raises
    except ChainViolationError:
        return True
    return False


_LAWS = [
    ("order-laws", _law_order),
    ("unit-injective", _law_unit_injective),
    ("flat-order", _law_flat),
    ("monad-laws", _law_monad),
    ("roundtrips", _law_roundtrip),
    ("lub-oracle", _law_lub),
    ("lub-guard", _law_lub_guard),
]


def cmd_laws(args) -> int:
    count = _check_fuel(args.count, "count")
    rng = random.Random(args.seed)
    all_ok = True
    for name, law in _LAWS:
        passed = sum(law(rng) for _ in range(count))
        print(f"{name}: {passed}/{count}")
        all_ok = all_ok and passed == count
    if all_ok:
        print("all suites passed")
        return 0
    print("law failures detected")
    return 1


# args that look like negative numbers but carry a denominator or step, and
# the subcommands that read them as operands
_NEGATIVE_ARG = re.compile(r"^-\d+([/:]-?\d+)?$")
_SIGNED = ("ispositive", "search")


# ---------------------------------------------------------------------------


def _int_arg(text: str) -> int:
    # an integer option of any length, refused with the message `type=int` gives
    try:
        return _read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, which here means "out of fuel"
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# the plain question forms, written once: subcommand -> (handler, help, each
# positional with its help, whether it takes --fuel); `_build_parser` builds
# these subcommands from it and `_read_plain` reads them
_QUESTIONS = {
    "run": (cmd_run, "evaluate a program with the interpreter",
            {"program": "file name or literal program text"}, True),
    "vm": (cmd_vm, "compile and run a program on the stack machine", {"program": None}, True),
    "compile": (cmd_compile, "show the compiled code of a program", {"program": None}, False),
    "ispositive": (cmd_ispositive, "semidecide the sign of a rational constant",
                   {"rational": "p or p/q"}, True),
    "search": (cmd_search, "unbounded search over an arithmetic stream",
               {"predicate": "even, odd, gt:N, ge:N, lt:N, le:N or eq:N",
                "stream": "start or start:step"}, True),
}


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="partiality")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, text, positionals, takes_fuel) in _QUESTIONS.items():
        sp = sub.add_parser(name, help=text)
        for pos, pos_text in positionals.items():
            sp.add_argument(pos, help=pos_text)
        if takes_fuel:
            sp.add_argument("--fuel", type=_int_arg, default=DEFAULT_FUEL)
        sp.set_defaults(fn=fn)
        if name in _SIGNED:  # let `ispositive -3/2` and `search even -5:3` through
            sp._negative_number_matcher = _NEGATIVE_ARG

    sp = sub.add_parser("laws", help="replay the seeded property suites")
    sp.add_argument("--seed", type=_int_arg, default=0)
    sp.add_argument("--count", type=_int_arg, default=100)
    sp.set_defaults(fn=cmd_laws)

    return p


def _read_plain(argv: list) -> argparse.Namespace | None:
    """The ``Namespace`` argparse builds for ``CMD ARG... [--fuel N]``, where
    ``N`` reads as an integer and neither it nor an ``ARG`` starts with
    ``-``, but for an ``ispositive`` or ``search`` operand that matches
    ``_NEGATIVE_ARG``; None for every other argv, which is argparse's to read."""
    form = _QUESTIONS.get(argv[0]) if argv and isinstance(argv[0], str) else None
    if form is None:
        return None
    fn, _, positionals, takes_fuel = form
    n = len(positionals) + 1
    if len(argv) != n and not (takes_fuel and len(argv) == n + 2 and argv[n] == "--fuel"):
        return None
    signed = argv[0] in _SIGNED
    if not all(isinstance(a, str) and (a[:1] != "-" or signed and _NEGATIVE_ARG.match(a)) for a in argv[1:n]):
        return None
    if not all(isinstance(a, str) and a[:1] != "-" for a in argv[n + 1 :]):  # the fuel
        return None
    args = argparse.Namespace(command=argv[0], **dict(zip(positionals, argv[1:n])))
    if takes_fuel:
        try:
            args.fuel = _read_int(argv[n + 1]) if len(argv) > n else DEFAULT_FUEL
        except ValueError:
            return None
    args.fn = fn
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (lang.LangError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
