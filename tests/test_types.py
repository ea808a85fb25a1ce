"""Type soundness as an oracle for both ``lang`` back ends at once.

Every other ``lang`` check compares two accounts of a term with each other,
so a fault that both back ends share, or that the parser makes before either
runs, passes all of them.  A simply typed term over ``N`` and ``A -> B``
does not go wrong, and with no recursion it always halts: that is an answer
known without running either back end.

Types here carry a cost.  ``("fn", A, k, B)`` is a function whose every call,
its own beta reduction included, takes at most ``k`` steps, so the generator
knows a bound on the steps of each term it draws and the test runs it with
that much fuel.  Typed Church numerals, at ``(N -p-> N) -1-> N -(1 + m p)-> N``,
give the long beta chains.
"""

import random

from partiality import delay as D
from partiality import lang
from partiality.lang import STUCK, App, Lam, Lit, Nat, Suc, Var, agree_within, compile_term, parse, show
from partiality.seq import Verdict

N = "N"
NAMES = "xyf"  # few names, so binders often shadow one another


def fn(a, k: int, b):
    return ("fn", a, k, b)


def fits(have, want) -> bool:
    # a value of type ``have`` serves where ``want`` is asked: the same shape,
    # and no call dearer than ``want`` allows
    if have == N or want == N:
        return have == want
    return have[2] <= want[2] and fits(want[1], have[1]) and fits(have[3], want[3])


def is_numeral_type(ty) -> bool:
    # ``(N -p-> N) -k-> N -q-> N``, where numerals up to ``(q - 1) // p`` fit
    return ty != N and all(t != N and t[1] == t[3] == N for t in (ty[1], ty[3]))


class TypedTerms:
    """Draws ``(term, text, bound)``: a closed term of a given type, the same
    term in concrete syntax with names that may shadow, and a bound on the
    steps it takes under call by value."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def type(self):
        rng = self.rng
        r = rng.random()
        if r < 0.45:
            return N
        if r < 0.7:
            return fn(N, rng.randint(1, 4), N)
        if r < 0.85:
            return fn(N, 1, fn(N, rng.randint(1, 3), N))
        p = rng.randint(1, 3)
        return fn(fn(N, p, N), 1, fn(N, 1 + rng.randint(0, 5) * p, N))  # a numeral's

    def term(self, ty, env: list, size: int, fuel: int):
        # ``env`` holds ``(name, type)`` for each open binder, innermost last
        rng = self.rng
        heads = self.heads(ty, env, size, fuel)
        if heads and (size <= 0 or rng.random() < 0.3):
            return self.spine(rng.choice(heads), env, size, fuel)
        if ty == N:
            r = rng.random()
            if size <= 0 or r < 0.15:
                n = rng.randrange(4)
                return Lit(n), str(n), 0
            if r < 0.35:
                t, text, cost = self.term(N, env, size - 1, fuel)
                return Suc(t), f"(suc {text})", cost
            if r < 0.7 and fuel >= 3:
                return self.church(env, size, fuel)
        else:
            _, a, k, b = ty
            if is_numeral_type(ty) and rng.random() < 0.3:
                return self.numeral(rng.randint(0, (b[2] - 1) // a[2]))
            if size <= 0 or fuel < 1 or rng.random() < 0.6:
                name = rng.choice(NAMES)
                body, text, _ = self.term(b, env + [(name, a)], size - 1, k - 1)
                return Lam(body), f"(\\{name}. {text})", 0
        if fuel < 1:
            return self.term(ty, env, 0, fuel)
        # an application through an argument type of its own
        a, k = self.type(), rng.randint(1, fuel)
        f, ftext, fcost = self.term(fn(a, k, ty), env, size // 2, rng.randint(0, fuel - k))
        x, xtext, xcost = self.term(a, env, size - 1 - size // 2, fuel - k - fcost)
        return App(f, x), f"({ftext} {xtext})", fcost + xcost + k

    def heads(self, ty, env, size, fuel):
        # each visible binder, applied to as many arguments as make it fit
        # ``ty``: ``(index, name, argument types, cost of the calls)``
        out, seen = [], set()
        for i in range(len(env) - 1, -1, -1):
            name, vty = env[i]
            if name in seen:
                continue  # shadowed
            seen.add(name)
            args, cost = [], 0
            while True:
                if fits(vty, ty) and cost <= fuel:
                    out.append((len(env) - 1 - i, name, list(args), cost))
                if vty == N or size <= 0:
                    break
                args.append(vty[1])
                cost += vty[2]
                vty = vty[3]
        return out

    def spine(self, head, env, size, fuel):
        index, name, args, cost = head
        t, text, fuel = Var(index), name, fuel - cost
        for a in args:
            x, xtext, xcost = self.term(a, env, size // len(args) - 1, self.rng.randint(0, fuel))
            t, text, fuel, cost = App(t, x), f"({text} {xtext})", fuel - xcost, cost + xcost
        return t, text, cost

    def church(self, env, size, fuel):
        # ``c_m f n``: two beta steps, then ``m`` calls of ``f``
        rng = self.rng
        p = rng.choice((1, 2, rng.randint(1, max(1, min(50, (fuel - 2) // 4)))))
        top = (fuel - 2) // p
        m = rng.randint(top // 2, top)
        c, ctext, _ = self.numeral(m)
        left = fuel - 2 - m * p
        f, ftext, fcost = self.term(fn(N, p, N), env, size // 2, rng.randint(0, left))
        n, ntext, ncost = self.term(N, env, size // 2, left - fcost)
        return App(App(c, f), n), f"(({ctext} {ftext}) {ntext})", 2 + m * p + fcost + ncost

    def numeral(self, m: int):
        f, x = self.rng.sample(NAMES, 2)
        body, text = Var(0), x
        for _ in range(m):
            body, text = App(Var(1), body), f"({f} {text})"
        return Lam(Lam(body)), f"(\\{f}. (\\{x}. {text}))", 0


POOL = 1600


def test_well_typed_terms_do_not_go_wrong():
    rng = random.Random(20261019)
    draw = TypedTerms(rng)
    long_runs = 0
    for i in range(POOL):
        long = i % 16 < 2  # one in eight, half of them through concrete syntax
        ty = N if long else draw.type()
        fuel = rng.randint(1000, 3000) if long else rng.randint(0, 60)
        t, text, bound = draw.term(ty, [], rng.randint(2, 14), fuel)
        assert bound <= fuel
        if i % 2:
            t = parse(show(parse(text)))  # through concrete syntax, shadowed names and all
        answers = lang.run(t, bound), lang.run_code(compile_term(t), bound)
        for r in answers:
            assert r is not D.TIMEOUT, (text, bound)
            assert r.value is not STUCK, text
            assert (type(r.value) is Nat) == (ty == N), text
        assert agree_within(t, bound) is Verdict.TRUE, text
        long_runs += answers[0].steps > 1000
    assert long_runs >= 45
