r"""The four workloads: seeded question pools, one op per question, oracles.

Each workload makes a pool of questions from the seed; the expected answers
that do not come from comparing two parts of the toolkit with each other are
worked out here, at set-up, by an independent route (a linear scan, a
brute-force Cantor scan, closed-form arithmetic).  An op asks one question
through the public API, wraps each call in a span named after the layer it
loads, and raises ``Failure`` when the answer disagrees with the oracle.

Cost parameters are spread over equal strata (``strata``) rather than drawn
independently, so the total work in a pool, and with it throughput, stays
nearly the same from seed to seed while the questions themselves change.
"""

from __future__ import annotations

import contextlib
import io
import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from partiality import cli, cpo, lang, reals, seq
from partiality import delay as D
from partiality.seq import Verdict, Witness


class Failure(Exception):
    """An answer that disagrees with its oracle."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise Failure(what)


def strata(rng: random.Random, n: int) -> list[float]:
    """``n`` numbers in [0, 1), one from each of ``n`` equal strata, shuffled."""
    xs = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(xs)
    return xs


def cli_answer(tr, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``partiality argv``, run in-process twice.

    The two runs must print identical bytes.
    """
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), tr.span("cli." + argv[0]):
            code = cli.main(argv)
        outs.append((code, buf.getvalue()))
    check(outs[0] == outs[1], f"repeat of {argv} printed different bytes")
    return outs[0]


def shift_n(s, k: int):
    for _ in range(k):
        s = seq.shift(s)
    return s


def traced_peak(fn: Callable[[], Any]) -> int:
    """Peak bytes allocated while ``fn`` runs, from ``tracemalloc``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# programs: many short questions on random closed lambda terms (C8 shape)

AGREE_FUEL = 256
PROGRAMS_CLI_EVERY = 16  # every 16th program also goes through `run` and `vm`


def programs_pool(seed: int, n: int) -> list:
    rng = random.Random(seed)
    pool = []
    for k in range(n):
        t = lang.gen_term(rng, size=rng.randrange(2, 13))
        pool.append((lang.show(t), t, k % PROGRAMS_CLI_EVERY == 0))
    return pool


def _cli_run_line(r) -> tuple[int, str]:
    if r is D.TIMEOUT:
        return 2, f"timeout fuel={AGREE_FUEL}\n"
    if r.value is lang.STUCK:
        return 3, "stuck\n"
    return 0, f"now {lang.render_value(r.value)} steps={r.steps}\n"


def programs_op(tr, q) -> None:
    text, want, via_cli = q
    with tr.span("lang.parse"):
        t = lang.parse(text)
    check(t == want, f"parse(show(t)) != t for {text!r}")
    with tr.span("lang.compile_term"):
        code = lang.compile_term(t)
    with tr.span("lang.vm"):
        rv = D.run_fuel(lang.execute(code), AGREE_FUEL)
    try:
        with tr.span("lang.agree_within"):
            verdict = lang.agree_within(t, AGREE_FUEL)
        with tr.span("lang.eval"):
            re_ = D.run_fuel(lang.evaluate(t), AGREE_FUEL)
    except RecursionError:
        # The interpreter keeps one Python frame per pending evaluation
        # context, so about one program in 10^5 overflows the stack within
        # the fuel: the defect that depth.delay_bind measures.  It is counted
        # and reported, not failed; the parse and VM answers were checked.
        tr.count("lang.eval.recursion_errors")
        return
    if re_ is D.TIMEOUT:
        check(rv is D.TIMEOUT, f"only the VM converged on {text!r}")
        check(verdict is Verdict.UNKNOWN, f"agree_within gave {verdict} on a timeout: {text!r}")
        steps = AGREE_FUEL
        tr.count("lang.timeouts")
    else:
        check(
            rv is not D.TIMEOUT
            and rv.steps == re_.steps
            and lang.observe_value(rv.value) == lang.observe_value(re_.value),
            f"interpreter {re_} and VM {rv} disagree on {text!r}",
        )
        check(verdict is Verdict.TRUE, f"agree_within gave {verdict} on {text!r}")
        steps = re_.steps
    tr.count("lang.eval.steps", steps)
    tr.count("lang.vm.steps", steps)
    # bisim_within scans each behaviour up to its convergence index or the fuel
    tr.count("seq.of_delay.cells", 2 * (steps + 1))
    if via_cli:
        want_line = _cli_run_line(re_)
        for sub in ("run", "vm"):
            got = cli_answer(tr, [sub, text, "--fuel", str(AGREE_FUEL)])
            check(got == want_line, f"`{sub}` printed {got}, the API gives {want_line}")


# ---------------------------------------------------------------------------
# deep: nesting at seeded depths below the known limits, and long-ish runs

# Depths stay well under the limits the toolkit reaches at the time of
# writing (delay bind 493, seq bind 328, shift 328, parse 329, search 983 as
# ``reference.depth_probes`` measures them), so that no timed question fails.
DEEP_KINDS = ("never", "delay_bind", "omega", "church", "seq_bind", "shift", "parse", "search")

# (base, exponent) pairs for Church numeral exponentiation, cheapest first
CHURCH = ((2, 2), (3, 2), (2, 3), (2, 4), (4, 2), (3, 3), (2, 5), (4, 3))


def church(n: int) -> str:
    return r"(\f. \x. " + "f (" * n + "x" + ")" * n + ")"


def deep_pool(seed: int, n: int) -> list:
    rng = random.Random(seed)
    per = max(1, n // len(DEEP_KINDS))
    pool = []
    for kind in DEEP_KINDS:
        for u in strata(rng, per):
            if kind == "never":
                pool.append((kind, 1000 + int(u * 5000), None))
            elif kind == "delay_bind":
                pool.append((kind, 20 + int(u * 140), None))
            elif kind == "omega":
                pool.append((kind, 100 + int(u * 900), None))
            elif kind == "church":
                a, b = CHURCH[int(u * len(CHURCH))]
                pool.append((kind, f"{church(b)} {church(a)} (\\n. suc n) 0", a**b))
            elif kind == "seq_bind":
                pool.append((kind, 10 + int(u * 190), None))
            elif kind == "shift":
                pool.append((kind, 10 + int(u * 90), None))
            elif kind == "parse":
                d = 10 + int(u * 190)
                pool.append((kind, d, "suc (" * (d - 1) + "suc 0" + ")" * (d - 1)))
            else:
                m = 5 + int(u * 75)
                start, step = rng.randrange(-50, 51), rng.randrange(1, 5)
                pool.append((kind, m, (start, step)))
    rng.shuffle(pool)
    return pool


def _delay_succ(v):
    return D.later(D.now(v + 1))


def _seq_succ(v):
    return seq.unit(v + 1)


def deep_op(tr, q) -> None:
    kind, size, extra = q
    if kind == "never":
        with tr.span("delay.never"):
            r = D.run_fuel(D.never(), size)
        check(r is D.TIMEOUT, f"never() converged: {r}")
        tr.count("delay.never.steps", size)
    elif kind == "delay_bind":
        with tr.span("delay.bind"):
            d = D.now(0)
            for _ in range(size):
                d = D.bind(d, _delay_succ)  # left-nested: each level adds one step
            r = D.run_fuel(d, size)
        check(r == D.Converged(size, size), f"bind nest {size} gave {r}")
        tr.count("delay.bind.steps", size)
    elif kind in ("omega", "church"):
        if kind == "omega":
            t, fuel = lang.OMEGA, size
        else:
            with tr.span("lang.parse"):
                t = lang.parse(size)  # for church, size is the program text
            fuel = 10**6
        with tr.span("lang.compile_term"):
            code = lang.compile_term(t)
        with tr.span("lang.eval"):
            re_ = D.run_fuel(lang.evaluate(t), fuel)
        with tr.span("lang.vm"):
            rv = D.run_fuel(lang.execute(code), fuel)
        if kind == "omega":
            check(re_ is D.TIMEOUT and rv is D.TIMEOUT, f"omega converged: {re_} {rv}")
            tr.count("lang.timeouts", 2)
            steps = fuel
        else:
            check(
                re_ is not D.TIMEOUT and re_.value == lang.Nat(extra),
                f"{size} gave {re_}, want {extra}",
            )
            check(rv == D.Converged(lang.Nat(extra), re_.steps), f"VM {rv} vs interpreter {re_}")
            steps = re_.steps
        tr.count("lang.eval.steps", steps)
        tr.count("lang.vm.steps", steps)
    elif kind == "seq_bind":
        with tr.span("seq.bind"):
            s = seq.unit(0)
            for _ in range(size):
                s = seq.bind(s, _seq_succ)
            w = seq.converges_within(s, 0)
        check(w == Witness(size, 0), f"seq bind nest {size} gave {w}")
        tr.count("seq.bind.cells", 1)
    elif kind == "shift":
        with tr.span("seq.shift"):
            w = seq.converges_within(shift_n(seq.unit(7), size), size)
        check(w == Witness(7, size), f"shift^{size} gave {w}")
        tr.count("seq.shift.cells", size + 1)
    elif kind == "parse":
        with tr.span("lang.parse"):
            t = lang.parse(extra)
        depth = 0
        while isinstance(t, lang.Suc):
            t, depth = t.arg, depth + 1
        check(depth == size and t == lang.Lit(0), f"parse of suc^{size} 0 is off")
    else:
        start, step = extra
        hit = start + step * size
        index = (size + 1) * (size + 2) // 2
        pred = tr.counted("cpo.pred_calls", lambda x: x == hit)
        with tr.span("cpo.search"):
            xs = cpo.stream_iterate(start, lambda x: x + step)
            w = seq.converges_within(cpo.search(pred, xs), index)
        check(w == Witness(hit, index), f"search for element {size} gave {w}")
        tr.count("cpo.search.cells", index + 1)
        tr.count("cpo.hit_positions", size + 1)


# ---------------------------------------------------------------------------
# chains: composed sequences of known outcome, no lang and no Fraction

CHAINS_KINDS = ("search", "shift", "bind", "verdict", "roundtrip", "lub", "bottom")
SEARCH_FUEL = 1024
LUB_FUEL = 256
CHAINS_CLI_EVERY = 4  # every 4th search also goes through `search`


def _search_question(rng: random.Random, u: float, per: int) -> tuple:
    m, rank = int(u * 41), int(u * per)
    start, step = rng.randrange(-5, 6), rng.randrange(1, 4)
    hit = start + step * m
    kind = ("ge", "eq", "parity")[rank % 3]  # parity hits at once: spread it evenly
    if kind == "ge":
        pred_text = f"ge:{hit}"
    elif kind == "eq":
        pred_text = f"eq:{hit}"
    else:
        pred_text = "even" if hit % 2 == 0 else "odd"
    # oracle: a linear scan of the stream for the first satisfying position
    p = 0
    while not _holds(kind, hit, start + step * p):
        p += 1
    want = Witness(start + step * p, (p + 1) * (p + 2) // 2)
    via_cli = rank % CHAINS_CLI_EVERY == 0  # spread over the hit positions
    return ("search", (kind, hit, start, step, pred_text), want, p + 1, via_cli)


def _holds(kind: str, hit: int, x: int) -> bool:
    if kind == "ge":
        return x >= hit
    if kind == "eq":
        return x == hit
    return x % 2 == hit % 2


def _rand_tower(rng: random.Random, depth: int = 0):
    """A tower description with its known outcome: (desc, index|None, value, never)."""
    kind = rng.randrange(7) if depth < 8 else rng.randrange(3)
    if kind == 0:
        return ("bottom",), None, None, True
    if kind == 1:
        v = rng.randrange(8)
        return ("unit", v), 0, v, False
    if kind == 2:
        if rng.random() < 0.15:
            return ("of_delay", None, None), None, None, False
        k, v = rng.randrange(20), rng.randrange(8)
        return ("of_delay", k, v), k, v, False
    inner, i, v, never = _rand_tower(rng, depth + 1)
    if kind in (3, 4):
        return ("shift", inner), None if i is None else i + 1, v, never
    if kind == 5:
        return ("unshift_shift", inner), i, v, never
    j = rng.randrange(4)
    return ("bind", inner, j), None if i is None else i + j, None if v is None else v + 1, never


def build_tower(desc):
    tag = desc[0]
    if tag == "bottom":
        return seq.bottom()
    if tag == "unit":
        return seq.unit(desc[1])
    if tag == "of_delay":
        if desc[1] is None:
            return seq.of_delay(D.never())
        d = D.now(desc[2])
        for _ in range(desc[1]):
            d = D.later(d)
        return seq.of_delay(d)
    if tag == "shift":
        return seq.shift(build_tower(desc[1]))
    if tag == "unshift_shift":
        return seq.unshift(seq.shift(build_tower(desc[1])))
    j = desc[2]
    return seq.bind(build_tower(desc[1]), lambda a: shift_n(seq.unit(a + 1), j))


def _leq_oracle(a, b, fuel: int) -> Verdict:
    _, ia, va, never_a = a
    _, ib, vb, _ = b
    if never_a:
        return Verdict.TRUE
    if ia is None or ia > fuel or ib is None or ib > fuel:
        return Verdict.UNKNOWN
    return Verdict.TRUE if va == vb else Verdict.FALSE


def _both(x: Verdict, y: Verdict) -> Verdict:
    if Verdict.FALSE in (x, y):
        return Verdict.FALSE
    return Verdict.UNKNOWN if Verdict.UNKNOWN in (x, y) else Verdict.TRUE


def _lub_oracle(stage: int, v: int, base: int, slope: int, fuel: int):
    # brute-force scan of the family table in Cantor order (C4)
    for n in range(fuel + 1):
        i, j = seq.cantor_unpair(n)
        if i >= stage and j >= max(0, base - slope * (i - stage)):
            return Witness(v, n)
    return None


def chains_pool(seed: int, n: int) -> list:
    rng = random.Random(seed)
    per = max(1, n // len(CHAINS_KINDS))
    pool = []
    for kind in CHAINS_KINDS:
        for u in strata(rng, per):
            if kind == "search":
                pool.append(_search_question(rng, u, per))
            elif kind == "shift":
                depth, v = int(u * 49), rng.randrange(16)
                fuel = rng.randrange(depth // 2, 2 * depth + 2)
                want = Witness(v, depth) if depth <= fuel else None
                pool.append((kind, (depth, v, fuel), want, min(depth, fuel) + 1, False))
            elif kind == "bind":
                base, v = int(u * 17), rng.randrange(16)
                adds = [rng.randrange(5) for _ in range(rng.randrange(1, 9))]
                index = base + sum(adds)
                fuel = max(0, index + rng.randrange(-4, 5))
                want = Witness(v + len(adds), index) if index <= fuel else None
                pool.append((kind, (base, v, adds, fuel), want, min(index, fuel) + 1, False))
            elif kind == "verdict":
                a, b = _rand_tower(rng), _rand_tower(rng)
                fuel = int(u * 49)
                if rng.random() < 0.5:
                    want = _leq_oracle(a, b, fuel)
                    pool.append((kind, ("leq", a[0], b[0], fuel), want, 0, False))
                else:
                    want = _both(_leq_oracle(a, b, fuel), _leq_oracle(b, a, fuel))
                    pool.append((kind, ("bisim", a[0], b[0], fuel), want, 0, False))
            elif kind == "roundtrip":
                steps = None if rng.random() < 0.15 else int(u * 33)
                v, fuel = rng.randrange(16), rng.randrange(65)
                if steps is not None and steps <= fuel:
                    want, used = D.Converged(v, steps), steps
                else:
                    want, used = D.TIMEOUT, fuel
                pool.append((kind, (steps, v, fuel), want, used, False))
            elif kind == "lub":
                stage, v = rng.randrange(9), rng.randrange(10)
                base, slope = rng.randrange(12), rng.randrange(3)
                fuel = int(u * (LUB_FUEL + 1))
                want = _lub_oracle(stage, v, base, slope, fuel)
                cells = fuel + 1 if want is None else want.index + 1
                pool.append((kind, (stage, v, base, slope, fuel), want, cells, False))
            else:
                fuel = 256 + int(u * 3840)
                pool.append((kind, fuel, None, fuel + 1, False))
    rng.shuffle(pool)
    return pool


def chains_op(tr, q) -> None:
    kind, args, want, units, via_cli = q
    if kind == "search":
        pkind, hit, start, step, pred_text = args
        pred = tr.counted("cpo.pred_calls", lambda x: _holds(pkind, hit, x))
        with tr.span("cpo.search"):
            xs = cpo.stream_iterate(start, lambda x: x + step)
            w = seq.converges_within(cpo.search(pred, xs), SEARCH_FUEL)
        check(w == want, f"search {pred_text} over {start}:{step} gave {w}, want {want}")
        tr.count("cpo.search.cells", w.index + 1)
        tr.count("cpo.hit_positions", units)
        if via_cli:
            argv = ["search", pred_text, f"{start}:{step}", "--fuel", str(SEARCH_FUEL)]
            got = cli_answer(tr, argv)
            check(got == (0, f"found {want.value} index={want.index}\n"), f"{argv} printed {got}")
    elif kind == "shift":
        depth, v, fuel = args
        with tr.span("seq.shift"):
            w = seq.converges_within(shift_n(seq.unit(v), depth), fuel)
        check(w == want, f"shift^{depth} at fuel {fuel} gave {w}")
        tr.count("seq.shift.cells", units)
    elif kind == "bind":
        base, v, adds, fuel = args
        with tr.span("seq.bind"):
            s = shift_n(seq.unit(v), base)
            for j in adds:
                s = seq.bind(s, lambda a, j=j: shift_n(seq.unit(a + 1), j))
            w = seq.converges_within(s, fuel)
        check(w == want, f"bind chain {args} gave {w}")
        tr.count("seq.bind.cells", units)
    elif kind == "verdict":
        which, a, b, fuel = args
        s, t = build_tower(a), build_tower(b)
        with tr.span("seq.verdict"):
            got = (seq.leq_within if which == "leq" else seq.bisim_within)(s, t, fuel)
        check(got is want, f"{which}({a}, {b}, {fuel}) gave {got}, want {want}")
    elif kind == "roundtrip":
        steps, v, fuel = args
        if steps is None:
            d = D.never()
        else:
            d = D.now(v)
            for _ in range(steps):
                d = D.later(d)
        with tr.span("seq.to_delay"):
            r = D.run_fuel(seq.to_delay(seq.of_delay(d)), fuel)
        check(r == want, f"round trip of {steps} steps at fuel {fuel} gave {r}")
        tr.count("seq.to_delay.steps", units)
    elif kind == "lub":
        stage, v, base, slope, fuel = args

        def member(m):
            if m < stage:
                return seq.bottom()
            return shift_n(seq.unit(v), max(0, base - slope * (m - stage)))

        family = tr.counted("seq.lub.members", member)
        with tr.span("seq.lub"):
            w = seq.converges_within(seq.lub(family), fuel)
        check(w == want, f"lub {args} gave {w}, want {want}")
        tr.count("seq.lub.cells", units)
    else:
        with tr.span("seq.bottom"):
            w = seq.converges_within(seq.bottom(), args)
        check(w is None, f"bottom converged: {w}")
        tr.count("seq.bottom.cells", units)


# ---------------------------------------------------------------------------
# sign: one flat Seq over costly Fraction queries

SIGN_CLI_EVERY = 8  # every 8th rational also goes through `ispositive`
BISIM_FUEL = 256
SHIFTS = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))


def sign_pool(seed: int, n: int) -> list:
    rng = random.Random(seed)
    n_zero, n_bisim = max(1, n // 10), max(1, n // 5)
    pool = []
    n_rational = max(1, n - n_zero - n_bisim)
    for u in strata(rng, n_rational):
        # convergence index log-uniform over 10 .. 3000 cells
        target = 10 * 300**u
        p = rng.choice((1, 2, 3))
        q = Fraction(rng.choice((-1, 1)) * p, max(1, round(target * p / 2)))
        index = 2 * q.denominator // abs(q.numerator) + 1  # least n with |n q| > 2
        bound = -((-2 * q.denominator) // abs(q.numerator)) + 1  # C7: ceil(2 den/|num|) + 1
        want = Witness(1 if q > 0 else 0, index)
        via_cli = int(u * n_rational) % SIGN_CLI_EVERY == 0  # spread over the index range
        pool.append(("rational", q, want, bound, via_cli))
    for u in strata(rng, n_zero):
        pool.append(("zero", Fraction(0), None, 500 + int(u * 1500), False))
    for k in range(n_bisim):
        # every ninth real is zero, whose two presentations stay undecided
        q = Fraction(0 if k % 9 == 0 else rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randrange(1, 30))
        c = rng.choice(SHIFTS)
        g = lambda m, q=q, c=c: q + c / (m + 1)
        if not reals.equiv_within(reals.const_real(q), g, 64):
            raise Failure(f"presentations of {q} are not equivalent")
        want = Verdict.TRUE if q else Verdict.UNKNOWN
        pool.append(("bisim", (q, g), want, BISIM_FUEL, False))
    rng.shuffle(pool)
    return pool


def sign_op(tr, q) -> None:
    kind, x, want, fuel, via_cli = q
    if kind == "bisim":
        r, g = x
        with tr.span("seq.verdict"):
            got = seq.bisim_within(reals.is_positive(reals.const_real(r)), reals.is_positive(g), fuel)
        check(got is want, f"bisim of two presentations of {r} gave {got}")
        return
    f = tr.counted("reals.queries", reals.const_real(x))
    with tr.span("reals.is_positive"):
        w = seq.converges_within(reals.is_positive(f), fuel)
    check(w == want, f"sign of {x} at fuel {fuel} gave {w}, want {want}")
    tr.count("reals.cells", fuel + 1 if w is None else w.index + 1)
    if via_cli:
        argv = ["ispositive", f"{x.numerator}/{x.denominator}", "--fuel", str(fuel)]
        got = cli_answer(tr, argv)
        line = f"{'positive' if want.value == 1 else 'negative'} index={want.index}\n"
        check(got == (0, line), f"{argv} printed {got}")


# ---------------------------------------------------------------------------
# per-workload memory probes: bytes per unit of work, for the traced run


def _omega_bytes(start: Callable[[], Any]) -> Callable[[], float]:
    steps = 20_000
    return lambda: traced_peak(lambda: D.run_fuel(start(), steps)) / steps


def _bottom_bytes() -> float:
    cells = 100_000
    return traced_peak(lambda: seq.converges_within(seq.bottom(), cells)) / cells


def _zero_real_bytes() -> float:
    cells = 5_000
    return traced_peak(
        lambda: seq.converges_within(reals.is_positive(reals.const_real(0)), cells)
    ) / cells


@dataclass(frozen=True)
class Workload:
    name: str
    make_pool: Callable[[int, int], list]
    op: Callable[[Any, Any], None]
    pool_size: int  # questions per pool; the timed pass cycles through it
    trace_ops: int  # questions asked untraced and traced for the per-layer run
    mem_ops: int  # questions in the end-to-end tracemalloc pass
    mem_long: Callable[[], None]  # one fixed long question that sets that pass's peak
    layer_bytes: dict  # per-layer metric name -> measurement


# The long questions are fixed, so the peak does not hang on which pool
# question happens to leave the most garbage behind.


def _agree_omega_long() -> None:
    # a divergent program observed far past the pool's fuel: the VM keeps a
    # frame per call and bisim_within keeps every cell it scanned
    check(lang.agree_within(lang.OMEGA, 10_000) is Verdict.UNKNOWN, "omega was decided")


def _vm_omega_long() -> None:
    r = D.run_fuel(lang.execute(lang.compile_term(lang.OMEGA)), 100_000)
    check(r is D.TIMEOUT, "omega converged on the VM")


def _search_long() -> None:
    index = 301 * 302 // 2
    xs = cpo.stream_iterate(0, lambda x: x + 1)
    w = seq.converges_within(cpo.search(lambda x: x == 300, xs), index)
    check(w == Witness(300, index), f"search for 300 gave {w}")


def _zero_real_long() -> None:
    w = seq.converges_within(reals.is_positive(reals.const_real(0)), 40_000)
    check(w is None, "zero was decided")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("programs", programs_pool, programs_op, 8192, 2048, 256, _agree_omega_long, {}),
        Workload(
            "deep", deep_pool, deep_op, 1024, 256, 64, _vm_omega_long,
            {
                "lang.eval.bytes_per_step": _omega_bytes(lambda: lang.evaluate(lang.OMEGA)),
                "lang.vm.bytes_per_step": _omega_bytes(
                    lambda: lang.execute(lang.compile_term(lang.OMEGA))
                ),
            },
        ),
        Workload("chains", chains_pool, chains_op, 4096, 2048, 256, _search_long,
                 {"seq.bytes_per_cell": _bottom_bytes}),
        Workload("sign", sign_pool, sign_op, 1024, 256, 64, _zero_real_long,
                 {"seq.bytes_per_cell": _zero_real_bytes}),
    )
}
