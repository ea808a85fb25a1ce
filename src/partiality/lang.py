r"""A tiny call-by-value lambda calculus, run two ways and compared.

Concrete syntax::

    e ::= \x. e          (the body extends as far right as possible)
        | e e            (application, left associative)
        | suc e          (binds tighter than application)
        | x
        | <nat>
        | ( e )

``parse`` reads it in one loop over the tokens, keeping open binders and
parentheses on its own stack, so nesting has no depth limit.  Internally
terms use de Bruijn indices: under ``d`` binders, a variable is bound when
``0 <= index < d`` and free otherwise.  There are two executable accounts:

* ``evaluate`` — the obvious environment interpreter, made total by
  returning a delayed value that takes one observable step per beta
  reduction.  It keeps its continuations on its own stack, the
  defunctionalized monadic interpreter, with the same values, steps and
  evaluation order; a step is one node, as in the machine below, so a term
  may nest to any depth;
* ``compile_term``/``execute`` — a small stack machine, one observable step
  per closure call, whose code ``disassemble`` lists one instruction a line.
  A step is one node that holds the code and environment the call enters
  and the run's stack and frames; a module-level loop runs it to the next
  call, so a run builds no closure and no reference cycle.  A call that is
  not in tail position pushes its return point, ``code``, ``pc`` and
  ``env``, as three entries of the frame stack.  ``compile_term`` and
  ``disassemble`` keep their own stacks, so code may nest to any depth.

Each back end has one loop, and it takes a budget: it runs through calls or
beta reductions in place while the budget lasts, and returns the step it
stops at as a node, or ``run_fuel``'s answer, ``Converged(value, steps)``,
which ``_end`` makes from the budget it had and the budget left.  The node
class, ``delay._Call``, serves both back ends: as a ``Delay`` keeps its
thunk in ``_step`` until it runs, a node keeps its loop there until its step
runs.  A node's step is that loop with budget 0, and ``run_fuel`` over a
node nobody has stepped runs the loop once with the whole fuel, so it builds
no node per step either.  A run that only wants the answer goes through
``run`` or ``run_code``, the loop with the whole fuel as its budget called
directly, which answers exactly as ``run_fuel`` over ``evaluate`` or
``execute`` would.  The one fuel check yields the ``int`` that budget counts
with.

Both get stuck on the same ill-typed operations (calling a number, taking
the successor of a function), and stuckness is abortive: the first stuck
operation ends the run with the ``STUCK`` value on both sides, in the same
evaluation order.  That calibration makes the two accounts agree step for
step, which the tests check.  ``agree_within`` checks the weaker equality
the partiality monad is built around, weak bisimilarity: fuel-bounded, both
accounts converge to the same observable value, whatever their step counts.
"""

from __future__ import annotations

import random
from typing import Any

from ._record import Marker, Record, _int_text, _read_int
from .delay import TIMEOUT, Converged, Delay, _Call, _check_fuel
from .seq import Verdict


# ---------------------------------------------------------------------------
# terms


class Var(Record):
    __slots__ = ("index",)


class Lam(Record):
    __slots__ = ("body",)


class App(Record):
    __slots__ = ("fn", "arg")


class Lit(Record):
    __slots__ = ("n",)


class Suc(Record):
    __slots__ = ("arg",)


# (\x. x x) (\x. x x): one beta per step, forever
OMEGA = App(Lam(App(Var(0), Var(0))), Lam(App(Var(0), Var(0))))


def is_closed(t) -> bool:
    """Is every variable of ``t`` bound?  One loop with its own stack of
    ``(term, depth)`` pairs, ``depth`` counting the binders around each."""
    todo, closed = [(t, 0)], True
    while todo:
        t, depth = todo.pop()
        if isinstance(t, Var):
            closed = closed and 0 <= t.index < depth
        elif isinstance(t, Lam):
            todo.append((t.body, depth + 1))
        elif isinstance(t, App):
            todo += ((t.arg, depth), (t.fn, depth))
        elif isinstance(t, Suc):
            todo.append((t.arg, depth))
        elif not isinstance(t, Lit):
            raise TypeError(f"not a term: {t!r}")
    return closed


# ---------------------------------------------------------------------------
# values


class Nat(Record):
    __slots__ = ("n",)


class Closure(Record):
    __slots__ = ("body", "env")


STUCK = Marker("STUCK", __name__)


def render_value(v) -> str:
    if isinstance(v, Nat):
        return _int_text(v.n)
    if v is STUCK:
        return "stuck"
    return "<closure>"


# ---------------------------------------------------------------------------
# the stack machine


class PushLit(Record):
    __slots__ = ("n",)


class PushVar(Record):
    __slots__ = ("index",)


class PushClo(Record):
    __slots__ = ("code",)


class Apply(Record):
    __slots__ = ()


class Add1(Record):
    __slots__ = ()


class Ret(Record):
    __slots__ = ()


class VmClosure(Record):
    __slots__ = ("code", "env")


_APPLY, _ADD1, _RET = Apply(), Add1(), Ret()


def compile_term(t) -> tuple:
    """Flatten a term to machine code; closure bodies end in ``Ret``.

    One loop with its own stack: it descends into a term's first subterm at
    once and leaves on ``todo`` what must follow that subterm, a shared
    instruction to emit or an argument still to compile; ``outer`` holds the
    code of each enclosing lambda while its body is compiled."""
    code, outer, todo = [], [], []
    while True:
        ty = type(t)
        if ty is App:
            todo += (_APPLY, t.arg)
            t = t.fn
        elif ty is Lam:
            outer.append(code)
            code, t = [], t.body
            todo.append(_RET)
        elif ty is Suc:
            todo.append(_ADD1)
            t = t.arg
        else:
            if ty is Var:
                code.append(PushVar(t.index))
            elif ty is Lit:
                code.append(PushLit(t.n))
            else:
                raise TypeError(f"not a term: {t!r}")
            # a leaf completes the subterms waiting on it, up to the next argument
            while todo:
                t = todo.pop()
                if t is _APPLY or t is _ADD1:
                    code.append(t)
                elif t is _RET:
                    code.append(t)
                    body, code = tuple(code), outer.pop()
                    code.append(PushClo(body))
                else:
                    break
            else:
                return tuple(code)


def disassemble(code: tuple) -> list[str]:
    """The listing of machine code: one line per instruction, nested code indented."""
    lines, outer, indent, rest = [], [], "", iter(code)
    while True:
        for ins in rest:
            if isinstance(ins, PushClo):
                lines.append(indent + "pushclo:")
                outer.append((indent, rest))  # resumed once the nested code is listed
                indent, rest = indent + "  ", iter(ins.code)
                break
            if isinstance(ins, PushLit):
                lines.append(f"{indent}pushlit {_int_text(ins.n)}")
            elif isinstance(ins, PushVar):
                lines.append(f"{indent}pushvar {ins.index}")
            elif isinstance(ins, (Apply, Add1, Ret)):
                lines.append(indent + type(ins).__name__.lower())
            else:
                raise TypeError(f"not an instruction: {ins!r}")
        else:
            if not outer:
                return lines
            indent, rest = outer.pop()


def _end(v, budget: int, left: int) -> Converged:
    # the value of a loop given ``budget`` that ended with ``left`` of it: the
    # one place where a budget becomes steps
    return Converged(v, budget - left)


def _run(code: tuple, env: tuple, machine: tuple, budget: int) -> "Converged | _Call":
    # run through up to ``budget`` closure calls and stop at the next one as
    # its node, or end at the value of the outermost code (``_end``)
    stack, frames = machine
    left = budget
    pc, end = 0, len(code)
    while pc < end:
        ins = code[pc]
        pc += 1
        ty = type(ins)
        if ty is PushVar:
            i = len(env) - 1 - ins.index
            if i < 0 or ins.index < 0:
                return _end(STUCK, budget, left)
            stack.append(env[i])
        elif ty is Apply:
            av = stack.pop()
            fv = stack.pop()
            if type(fv) is not VmClosure:
                return _end(STUCK, budget, left)
            if pc == end or type(code[pc]) is not Ret:
                frames += code, pc, env  # a tail call, just before Ret, needs no frame
            if not left:
                return _Call(_run, fv.code, fv.env + (av,), machine)
            left -= 1
            code, pc, env = fv.code, 0, fv.env + (av,)
            end = len(code)
        elif ty is Ret:
            env = frames.pop()
            pc = frames.pop()
            code = frames.pop()
            end = len(code)
        elif ty is PushClo:
            stack.append(VmClosure(ins.code, env))
        elif ty is PushLit:
            stack.append(Nat(ins.n))
        elif ty is Add1:
            v = stack.pop()
            if type(v) is not Nat:
                return _end(STUCK, budget, left)
            stack.append(Nat(v.n + 1))
        else:
            raise TypeError(f"not an instruction: {ins!r}")
    return _end(stack[-1], budget, left)


def execute(code: tuple) -> Delay:
    """Run machine code; one observable step per closure call.

    Ill-typed operations halt the whole machine with ``STUCK`` — the frame
    stack is abandoned, matching the interpreter's abortive stuckness.
    """
    return _Call(_run, code, (), ([], []))


def run_code(code: tuple, fuel: int) -> "Converged | Marker":
    """``run_fuel(execute(code), fuel)``, computed in one loop that builds
    no step node on the way."""
    return _spend(_run, code, ([], []), fuel)


def _spend(loop, start, machine, fuel: int) -> "Converged | Marker":
    # a back end's loop with the whole fuel as its budget
    fuel = _check_fuel(fuel)
    r = loop(start, (), machine, fuel)
    return TIMEOUT if type(r) is _Call else r


# ---------------------------------------------------------------------------
# the definitional interpreter


def evaluate(t) -> Delay:
    """Call-by-value evaluation (a free variable is stuck); one step per beta reduction."""
    return _Call(_eval, t, (), [])


def run(t, fuel: int) -> "Converged | Marker":
    """``run_fuel(evaluate(t), fuel)``, computed in one loop that builds
    no step node on the way."""
    return _spend(_eval, t, [], fuel)


_SUC = object()  # the continuation that takes the successor of a value


def _eval(t, env: tuple, konts: list, budget: int) -> "Converged | _Call":
    # evaluate through up to ``budget`` beta reductions and stop at the next
    # one as its node, or end at the value of the whole run (``_end``);
    # ``konts`` holds ``_SUC``, an argument ``(term, env)`` still to
    # evaluate, or a function value waiting for its argument's value
    left = budget
    while True:
        ty = type(t)
        if ty is App:
            konts.append((t.arg, env))
            t = t.fn
        elif ty is Suc:
            konts.append(_SUC)
            t = t.arg
        else:
            if ty is Var:
                v = env[~t.index] if 0 <= t.index < len(env) else STUCK
            elif ty is Lit:
                v = Nat(t.n)
            elif ty is Lam:
                v = Closure(t.body, env)
            else:
                raise TypeError(f"not a term: {t!r}")
            # hand the value on until a continuation has a term to evaluate;
            # stuckness aborts, so a stuck function's argument never runs
            while v is not STUCK and konts:
                k = konts.pop()
                if k is _SUC:
                    v = Nat(v.n + 1) if type(v) is Nat else STUCK
                elif type(k) is tuple:
                    konts.append(v)
                    t, env = k
                    break
                elif type(k) is Closure:
                    if not left:
                        return _Call(_eval, k.body, k.env + (v,), konts)
                    left -= 1
                    t, env = k.body, k.env + (v,)
                    break
                else:
                    return _end(STUCK, budget, left)
            else:
                return _end(v, budget, left)


# ---------------------------------------------------------------------------
# agreement of the two accounts


def observe_value(v) -> Any:
    """Collapse a value to what both accounts can be compared on."""
    if isinstance(v, Nat):
        return ("nat", v.n)
    if v is STUCK:
        return "stuck"
    return "closure"


def agree_within(t, fuel: int) -> Verdict:
    """Fuel-bounded weak bisimilarity: do interpreter and machine converge
    to the same value, whatever their step counts?

    ``TRUE``/``FALSE`` are final; if either side has not converged within
    ``fuel`` the verdict is ``UNKNOWN``, so a diverging term stays
    ``UNKNOWN`` at any fuel.  The machine runs first, and the interpreter
    only if the machine converged: once one side is out of fuel the verdict
    is ``UNKNOWN`` whatever the other does.
    """
    code = compile_term(t)
    b = run_code(code, fuel)
    if b is TIMEOUT:
        return Verdict.UNKNOWN
    a = run(t, fuel)
    if a is TIMEOUT:
        return Verdict.UNKNOWN
    return Verdict.TRUE if observe_value(a.value) == observe_value(b.value) else Verdict.FALSE


# ---------------------------------------------------------------------------
# concrete syntax


class LangError(Exception):
    def __init__(self, msg: str, pos: int):
        self.pos = pos
        super().__init__(f"{msg} (at offset {pos})")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in "\\.()":
            toks.append((c, c, i))
            i += 1
        elif c.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            toks.append(("nat", src[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            text = src[i:j]
            toks.append(("suc" if text == "suc" else "ident", text, i))
            i = j
        else:
            raise LangError(f"stray character {c!r}", i)
    toks.append(("eof", "", n))
    return toks


def _expect(toks, kind: str) -> str:
    k, text, pos = toks.pop()
    if k != kind:
        raise LangError(f"expected {kind!r}, found {text or 'end of input'!r}", pos)
    return text


def parse(src: str):
    r"""``head`` is the application read so far in the innermost open term,
    ``sucs`` the ``suc``s waiting for its next item; ``frames`` saves the name
    of each open ``\x.``, and ``head`` and ``sucs`` at each ``(``.  ``scopes``
    maps a name to the depths of the open binders of that name."""
    toks = _tokenize(src)
    toks.reverse()  # read by popping, so each token is freed once it is read
    head, sucs, frames, scopes, depth = None, 0, [], {}, 0
    while True:
        kind, text, pos = toks.pop()
        if kind == "ident":
            binders = scopes.get(text)
            if not binders:
                raise LangError(f"unbound variable {text!r}", pos)
            item = Var(depth - 1 - binders[-1])
        elif kind == "nat":
            item = Lit(_read_int(text))
        elif kind == "(":
            frames.append(("(", head, sucs))
            head, sucs = None, 0
            continue
        elif kind == "suc":
            sucs += 1
            continue
        elif kind == "\\" and head is None and not sucs:
            name = _expect(toks, "ident")
            _expect(toks, ".")
            frames.append(("\\", name))
            scopes.setdefault(name, []).append(depth)
            depth += 1
            continue
        else:
            # any other token ends the innermost term, closing its binders
            found = text or "end of input"
            if sucs:
                raise LangError(f"'suc' needs an argument, found {found!r}", pos)
            if head is None:
                raise LangError(f"expected a term, found {found!r}", pos)
            item = head
            while frames and frames[-1][0] == "\\":
                scopes[frames.pop()[1]].pop()
                depth -= 1
                item = Lam(item)
            if not frames:
                if kind == "eof":
                    return item
                raise LangError(f"unexpected {text!r} after the term", pos)
            if kind != ")":
                raise LangError(f"expected ')', found {found!r}", pos)
            _, head, sucs = frames.pop()
        while sucs:
            item, sucs = Suc(item), sucs - 1
        head = item if head is None else App(head, item)


def show(t) -> str:
    """Print a term back in the concrete syntax, inventing variable names.
    One loop with its own stack, so a term may nest to any depth."""

    def fresh(depth: int) -> str:
        base = "xyzuvw"[depth % 6]
        k = depth // 6
        return base + ("" if k == 0 else str(k))

    out = []
    todo = [(t, 0, 0)]  # (term, binder depth, precedence) items, and literal text
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, depth, prec = item
        while True:  # print down the leftmost path, stacking what follows it
            ty = type(t)
            if ty is Var:
                out.append(fresh(depth - 1 - t.index) if 0 <= t.index < depth else f"#{t.index}")
                break
            if ty is Lit:
                out.append(_int_text(t.n))
                break
            if prec > (0 if ty is Lam else 1):
                out.append("(")
                todo.append(")")
            if ty is Lam:
                out.append(f"\\{fresh(depth)}. ")
                t, depth, prec = t.body, depth + 1, 0
            elif ty is Suc:
                out.append("suc ")
                t, prec = t.arg, 2
            elif ty is App:
                todo += ((t.arg, depth, 2), " ")
                t, prec = t.fn, 1
            else:
                raise TypeError(f"not a term: {t!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# closed-term generation, for bulk testing


def gen_term(rng: "random.Random | int", size: int = 8):
    """A random closed term.

    Application heads are biased toward literal lambdas and a few seeded
    self-application combinators, so real beta chains, divergence and
    stuckness all show up at honest rates — a uniform grammar walk almost
    never reduces at all.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)

    delta = Lam(App(Var(0), Var(0)))  # \x. x x

    def go(budget: int, depth: int):
        if budget <= 0:
            if depth > 0 and rng.random() < 0.6:
                return Var(rng.randrange(depth))
            return Lit(rng.randrange(4))
        r = rng.random()
        if r < 0.06:
            return rng.choice((OMEGA, delta, Lam(Var(0))))
        if r < 0.28:
            return Lam(go(budget - 1, depth + 1))
        if r < 0.40:
            return Suc(go(budget - 1, depth))
        if r < 0.52 and depth > 0:
            return Var(rng.randrange(depth))
        if r < 0.60:
            return Lit(rng.randrange(4))
        half = rng.randrange(budget)
        fn = Lam(go(half, depth + 1)) if rng.random() < 0.5 else go(half, depth)
        return App(fn, go(budget - 1 - half, depth))

    return go(size, 0)
