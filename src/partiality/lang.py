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
terms use de Bruijn indices.  There are two executable accounts:

* ``eval`` — the obvious environment interpreter, made total by returning a
  delayed value that takes one observable step per beta reduction.  It keeps
  its continuations on its own stack, the defunctionalized monadic
  interpreter, with the same values, steps and evaluation order; a step is
  one node, as in the machine below, so a term may nest to any depth;
* ``compile``/``execute`` — a small stack machine, one observable step per
  closure call, whose code ``disassemble`` lists one instruction a line.
  A step is one node that holds the code and environment the call enters
  and the run's stack and frames; a module-level loop runs it to the next
  call, so a run builds no closure and no reference cycle.  ``compile_term``
  and ``disassemble`` keep their own stacks, so code may nest to any depth.

Both get stuck on the same ill-typed operations (calling a number, taking
the successor of a function), and stuckness is abortive: the first stuck
operation ends the run with the ``STUCK`` value on both sides, in the same
evaluation order.  That calibration is what makes the two accounts agree
step for step, and ``agree_within`` checks exactly that, fuel-bounded, on
the observable behaviours.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from . import delay as D
from . import seq
from .delay import Delay, Later, Now
from .seq import Seq, Verdict


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Lam:
    body: "Term"


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Lit:
    n: int


@dataclass(frozen=True)
class Suc:
    arg: "Term"


Term = "Var | Lam | App | Lit | Suc"

# (\x. x x) (\x. x x): one beta per step, forever
OMEGA = App(Lam(App(Var(0), Var(0))), Lam(App(Var(0), Var(0))))


def is_closed(t, depth: int = 0) -> bool:
    if isinstance(t, Var):
        return t.index < depth
    if isinstance(t, Lam):
        return is_closed(t.body, depth + 1)
    if isinstance(t, App):
        return is_closed(t.fn, depth) and is_closed(t.arg, depth)
    if isinstance(t, Suc):
        return is_closed(t.arg, depth)
    return True


# ---------------------------------------------------------------------------
# values


@dataclass(frozen=True)
class Nat:
    n: int


@dataclass(frozen=True)
class Closure:
    body: Any
    env: tuple


class _Stuck:
    __slots__ = ()

    def __repr__(self) -> str:
        return "STUCK"


STUCK = _Stuck()


def render_value(v) -> str:
    if isinstance(v, Nat):
        return str(v.n)
    if v is STUCK:
        return "stuck"
    return "<closure>"


# ---------------------------------------------------------------------------
# the stack machine


@dataclass(frozen=True)
class PushLit:
    n: int


@dataclass(frozen=True)
class PushVar:
    index: int


@dataclass(frozen=True)
class PushClo:
    code: tuple


@dataclass(frozen=True)
class Apply:
    pass


@dataclass(frozen=True)
class Add1:
    pass


@dataclass(frozen=True)
class Ret:
    pass


@dataclass(frozen=True)
class VmClosure:
    code: tuple
    env: tuple


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
                lines.append(f"{indent}pushlit {ins.n}")
            elif isinstance(ins, PushVar):
                lines.append(f"{indent}pushvar {ins.index}")
            else:
                lines.append(indent + type(ins).__name__.lower())
        else:
            if not outer:
                return lines
            indent, rest = outer.pop()


class _Call(Delay):
    """One step of a run: the code and environment a closure call enters,
    and the run's ``(stack, frames)``, which all of its steps share."""

    __slots__ = ("_code", "_env", "_machine")

    def __init__(self, code: tuple, env: tuple, machine: tuple):
        self._code, self._env, self._machine, self._observed = code, env, machine, None

    def observe(self) -> "Now | Later":
        if self._observed is None:
            self._observed = _run(self._code, self._env, self._machine)
            self._code = self._env = self._machine = None
        return self._observed


def _run(code: tuple, env: tuple, machine: tuple) -> "Now | Later":
    # run until the next closure call, or the end of the outermost code
    stack, frames = machine
    pc, end = 0, len(code)
    while pc < end:
        ins = code[pc]
        pc += 1
        ty = type(ins)
        if ty is PushVar:
            i = len(env) - 1 - ins.index
            if i < 0:
                return Now(STUCK)
            stack.append(env[i])
        elif ty is Apply:
            av = stack.pop()
            fv = stack.pop()
            if type(fv) is not VmClosure:
                return Now(STUCK)
            if pc == end or type(code[pc]) is not Ret:
                frames.append((code, pc, env))  # a tail call, just before Ret, needs none
            return Later(_Call(fv.code, fv.env + (av,), machine))
        elif ty is Ret:
            code, pc, env = frames.pop()
            end = len(code)
        elif ty is PushClo:
            stack.append(VmClosure(ins.code, env))
        elif ty is PushLit:
            stack.append(Nat(ins.n))
        elif ty is Add1:
            v = stack.pop()
            if type(v) is not Nat:
                return Now(STUCK)
            stack.append(Nat(v.n + 1))
        else:
            raise TypeError(f"not an instruction: {ins!r}")
    return Now(stack[-1])


def execute(code: tuple) -> Delay:
    """Run machine code; one observable step per closure call.

    Ill-typed operations halt the whole machine with ``STUCK`` — the frame
    stack is abandoned, matching the interpreter's abortive stuckness.
    """
    return _Call(code, (), ([], []))


# ---------------------------------------------------------------------------
# the definitional interpreter


def evaluate(t, env: tuple = ()) -> Delay:
    """Call-by-value evaluation; one observable step per beta reduction."""
    return _Eval(t, env, [])


class _Eval(_Call):
    """One step of an interpreter run: the term and environment to evaluate,
    and the run's stack of pending continuations, which all of its steps share."""

    __slots__ = ()

    def observe(self) -> "Now | Later":
        if self._observed is None:
            self._observed = _eval(self._code, self._env, self._machine)
            self._code = self._env = self._machine = None
        return self._observed


_SUC = object()  # the continuation that takes the successor of a value


def _eval(t, env: tuple, konts: list) -> "Now | Later":
    # evaluate until the next beta reduction, or the value of the whole run;
    # ``konts`` holds ``_SUC``, an argument ``(term, env)`` still to evaluate,
    # or a function value waiting for its argument's value
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
                v = env[len(env) - 1 - t.index] if t.index < len(env) else STUCK
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
                    return Later(_Eval(k.body, k.env + (v,), konts))
                else:
                    return Now(STUCK)
            else:
                return Now(v)


# ---------------------------------------------------------------------------
# agreement of the two accounts


def observe_value(v) -> Any:
    """Collapse a value to what both accounts can be compared on."""
    if isinstance(v, Nat):
        return ("nat", v.n)
    if v is STUCK:
        return "stuck"
    return "closure"


def behaviour(d: Delay) -> Seq:
    return seq.of_delay(D.map(d, observe_value))


def agree_within(t, fuel: int) -> Verdict:
    """Fuel-bounded: do interpreter and machine have the same behaviour?

    ``TRUE``/``FALSE`` are final; a diverging term stays ``UNKNOWN`` at any
    fuel, since neither account can be observed to its limit.
    """
    return seq.bisim_within(behaviour(evaluate(t)), behaviour(execute(compile_term(t))), fuel)


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
            item = Lit(int(text))
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
    """Print a term back in the concrete syntax, inventing variable names."""

    def fresh(depth: int) -> str:
        base = "xyzuvw"[depth % 6]
        k = depth // 6
        return base + ("" if k == 0 else str(k))

    def go(t, depth: int, prec: int) -> str:
        if isinstance(t, Var):
            if t.index < depth:
                return fresh(depth - 1 - t.index)
            return f"#{t.index}"
        if isinstance(t, Lit):
            return str(t.n)
        if isinstance(t, Lam):
            s = f"\\{fresh(depth)}. {go(t.body, depth + 1, 0)}"
            return f"({s})" if prec > 0 else s
        if isinstance(t, Suc):
            s = f"suc {go(t.arg, depth, 2)}"
            return f"({s})" if prec > 1 else s
        s = f"{go(t.fn, depth, 1)} {go(t.arg, depth, 2)}"
        return f"({s})" if prec > 1 else s

    return go(t, 0, 0)


# ---------------------------------------------------------------------------
# closed-term generation, for bulk testing


# Short aliases in the traditional interpreter vocabulary.  The shadowed
# builtins are unused in this module; importing * from here is on you.
eval = evaluate
compile = compile_term
exec = execute


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
