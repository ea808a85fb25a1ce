import gc
import random

import pytest

from partiality import delay as D
from partiality import lang, seq
from partiality._record import _int_text, _read_int
from partiality.lang import (
    App, Lam, Lit, Nat, STUCK, Suc, Var, OMEGA,
    agree_within, compile_term, evaluate, execute, gen_term, parse, show,
)
from partiality.seq import Verdict
from helpers import interrupt_at, peak


def run(t, fuel=1000):
    return D.run_fuel(evaluate(t), fuel)


def vm(t, fuel=1000):
    return D.run_fuel(execute(compile_term(t)), fuel)


THREE = parse(r"(\f. f (f 1)) (\x. suc x)")

# per back end: a run's head, the answer of its budgeted loop, and the loop's name
BACK_ENDS = {
    "interpreter": (evaluate, lang.run, "_eval"),
    "vm": (lambda t: execute(compile_term(t)), lambda t, fuel: lang.run_code(compile_term(t), fuel), "_run"),
}


def observed(d, fuel):
    # run_fuel's answer, taken one observed layer at a time
    for steps in range(fuel + 1):
        ob = d.observe()
        if type(ob) is D.Now:
            return D.Converged(ob.value, steps)
        d = ob.rest
    return D.TIMEOUT


def counted_loop(monkeypatch, name):
    # a one-item list that counts the calls of lang's loop `name` by every
    # step node built from here on
    calls = [0]
    inner = getattr(lang, name)

    def counting(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(lang, name, counting)
    return calls


# --- parsing ---------------------------------------------------------------


def test_parse_application_is_left_associative():
    assert parse(r"(\x. \y. \z. x y z) 0 0 0") == App(
        App(App(Lam(Lam(Lam(App(App(Var(2), Var(1)), Var(0))))), Lit(0)), Lit(0)), Lit(0)
    )


def test_parse_lambda_body_extends_right():
    assert parse(r"\x. x x") == Lam(App(Var(0), Var(0)))


def test_parse_suc_binds_tighter_than_application():
    f = Lam(Var(0))
    assert parse(r"(\f. suc f 1) (\x. x)") == App(Lam(App(Suc(Var(0)), Lit(1))), f)


def test_parse_shadowing_picks_the_inner_binder():
    assert parse(r"\x. \x. x") == Lam(Lam(Var(0)))


def test_parse_errors_carry_positions():
    with pytest.raises(lang.LangError) as ei:
        parse(r"\x. (x")
    assert ei.value.pos == 6
    with pytest.raises(lang.LangError) as ei:
        parse("freevar")
    assert ei.value.pos == 0
    with pytest.raises(lang.LangError):
        parse("1 2 )")
    with pytest.raises(lang.LangError):
        parse("")
    with pytest.raises(lang.LangError):
        parse("suc")


def test_show_parse_roundtrip_on_generated_terms():
    for i in range(300):
        t = gen_term(i, size=9)
        assert parse(show(t)) == t


@pytest.mark.parametrize(
    "src, message, pos",
    [
        (r"\ 1. x", "expected 'ident', found '1'", 2),
        (r"\suc. 0", "expected 'ident', found 'suc'", 1),
        (r"\x 1", "expected '.', found '1'", 3),
        (")", "expected a term, found ')'", 0),
        ("(suc)", "'suc' needs an argument, found ')'", 4),
        ("(0 1", "expected ')', found 'end of input'", 4),
        (r"\x. y", "unbound variable 'y'", 4),
        ("0 )", "unexpected ')' after the term", 2),
        ("0 #", "stray character '#'", 2),
    ],
)
def test_parse_error_message_and_offset(src, message, pos):
    with pytest.raises(lang.LangError) as ei:
        parse(src)
    assert ei.value.pos == pos
    assert str(ei.value) == f"{message} (at offset {pos})"


def test_parse_reads_any_nesting_depth():
    depth = 10**5
    t = parse("suc (" * (depth - 1) + "suc 0" + ")" * (depth - 1))
    for _ in range(depth):
        assert isinstance(t, Suc)
        t = t.arg
    assert t == Lit(0)


def test_parse_memory_is_linear_in_binder_depth():
    def parse_peak(n):
        src = "\\x. " * n + "x"
        return peak(lambda: parse(src))

    small, large = parse_peak(1000), parse_peak(2000)
    assert large < 2.5 * small and large < 2_000_000


def test_numerals_are_decimal_digits():
    with pytest.raises(lang.LangError) as ei:
        parse("²")  # superscript two is a digit, but not a decimal one
    assert ei.value.pos == 0 and "stray character" in str(ei.value)
    assert parse("١٢") == Lit(12)  # Arabic-Indic one, two


# Python stops converting an int to or from text past 4 300 digits, so these
# values are built arithmetically: int("9" * 5000) itself raises
@pytest.mark.parametrize(
    "n, text",
    [
        (10**4300 - 1, "9" * 4300),
        (10**4301 - 1, "9" * 4301),
        (10**5000, "1" + "0" * 5000),  # chunks of zeros
        (7 * 10**8000 + 3, "7" + "0" * 7999 + "3"),  # a chunk that needs its leading zeros
    ],
    ids=["4300-nines", "4301-nines", "ten-to-5000", "padded-chunk"],
)
def test_big_naturals_parse_show_list_and_render(n, text):
    t = parse(text)
    assert t == Lit(n)
    assert show(t) == text
    assert lang.disassemble(lang.compile_term(t)) == ["pushlit " + text]
    assert lang.render_value(run(t).value) == text
    assert parse("0" * 5000 + text) == t  # leading zeros count as digits too


@pytest.mark.parametrize(
    "n",
    [0, 7, -7, 10**4300 - 1, -(10**5000), -(7 * 10**8000 + 3)],
    ids=["0", "7", "-7", "4300-nines", "minus-ten-to-5000", "minus-padded-chunk"],
)
def test_integers_of_any_size_go_through_text_as_int_and_str_do(n):
    text = _int_text(n)
    assert _read_int(text) == n
    assert _read_int(f" +{text[:9]}_{text[9:]}\n" if n > 10**9 else text) == n  # int's own forms
    with pytest.raises(ValueError):
        _read_int(text + "x")


def test_show_prints_a_free_index():
    assert show(Var(3)) == "#3"


def recursive_show(t):
    # the reference: one Python call per nesting level
    def fresh(depth):
        k = depth // 6
        return "xyzuvw"[depth % 6] + ("" if k == 0 else str(k))

    def go(t, depth, prec):
        if isinstance(t, Var):
            return fresh(depth - 1 - t.index) if 0 <= t.index < depth else f"#{t.index}"
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


def test_show_matches_the_recursive_printer(rng):
    for i in range(2000):
        t = gen_term(rng, size=rng.randrange(2, 13))
        if i % 2:
            t = App(t, Var(rng.randrange(3)))  # open, so a free index is printed too
        assert show(t) == recursive_show(t)


@pytest.mark.parametrize(
    "leaf, wrap",
    [
        (Lit(0), Suc),
        (Var(0), Lam),
        (Lit(0), lambda t: App(t, Lit(0))),
        (Lit(0), lambda t: App(Lit(0), t)),
    ],
    ids=["suc", "lambdas", "left-nested", "right-nested"],
)
def test_show_round_trips_at_any_depth(leaf, wrap):
    t = leaf
    for _ in range(10**5):
        t = wrap(t)
    text = show(t)
    # strings are compared: == on a deep term recurses, once per level
    assert show(parse(text)) == text


# --- the interpreter -------------------------------------------------------


def test_literals_and_suc():
    assert run(Lit(3)).value == Nat(3)
    assert run(Suc(Suc(Lit(0)))).value == Nat(2)


def test_beta_takes_one_step():
    r = run(parse(r"(\x. x) 5"))
    assert r.value == Nat(5) and r.steps == 1


def test_nested_calls_accumulate_steps():
    r = run(parse(r"(\f. f (f 1)) (\x. suc x)"))
    assert r.value == Nat(3) and r.steps == 3


def test_omega_diverges():
    assert run(OMEGA, 10_000) is D.TIMEOUT


def test_stuck_operations():
    assert run(parse("1 2")).value is STUCK
    assert run(parse(r"suc (\x. x)")).value is STUCK
    assert run(parse(r"(\x. x 1) 2")).value is STUCK


def test_stuck_aborts_before_the_argument():
    # the diverging argument is never evaluated once the head is stuck
    t = App(App(Lit(1), Lit(2)), OMEGA)
    r = run(t, 50)
    assert r.value is STUCK and r.steps == 0


def test_call_by_value_evaluates_arguments():
    # (\x. 0) Omega must diverge under CBV
    assert run(App(Lam(Lit(0)), OMEGA), 5_000) is D.TIMEOUT


# --- the machine -----------------------------------------------------------


def test_compiled_code_shape():
    code = compile_term(parse(r"(\x. suc x) 1"))
    assert code == (
        lang.PushClo((lang.PushVar(0), lang.Add1(), lang.Ret())),
        lang.PushLit(1),
        lang.Apply(),
    )


def test_disassemble_indents_nested_code():
    assert lang.disassemble(compile_term(parse(r"(\x. \y. x) 2"))) == [
        "pushclo:",
        "  pushclo:",
        "    pushvar 1",
        "    ret",
        "  ret",
        "pushlit 2",
        "apply",
    ]


def test_vm_matches_interpreter_on_values_and_steps(rng):
    for _ in range(500):
        t = gen_term(rng, size=10)
        a = run(t, 128)
        b = vm(t, 128)
        if a is D.TIMEOUT:
            assert b is D.TIMEOUT
        else:
            assert b is not D.TIMEOUT and a.steps == b.steps
            assert lang.observe_value(a.value) == lang.observe_value(b.value)


def test_vm_omega_diverges():
    assert vm(OMEGA, 10_000) is D.TIMEOUT


# --- agreement -------------------------------------------------------------


def test_agreement_on_a_converging_term():
    assert agree_within(parse(r"(\f. f (f 1)) (\x. suc x)"), 64) is Verdict.TRUE


def test_agreement_on_omega_is_unknown_at_any_fuel():
    assert agree_within(OMEGA, 1) is Verdict.UNKNOWN
    assert agree_within(OMEGA, 512) is Verdict.UNKNOWN


def test_agreement_on_stuck_terms():
    assert agree_within(parse("1 2"), 16) is Verdict.TRUE
    assert agree_within(App(App(Lit(1), Lit(2)), OMEGA), 16) is Verdict.TRUE


def test_agreement_needs_fuel_to_confirm():
    slow = App(Lam(App(Lam(Var(0)), Lit(1))), Lit(0))
    # two betas; with fuel 1 neither side converges
    assert agree_within(slow, 1) is Verdict.UNKNOWN
    assert agree_within(slow, 8) is Verdict.TRUE


def test_agreement_is_false_when_the_values_differ(monkeypatch):
    monkeypatch.setattr(lang, "run_code", lambda code, fuel: D.Converged(Nat(99), 0))
    assert agree_within(parse("1"), 4) is Verdict.FALSE
    # a timeout on either side is UNKNOWN, even against a wrong value
    assert agree_within(OMEGA, 4) is Verdict.UNKNOWN
    monkeypatch.setattr(lang, "run_code", lambda code, fuel: D.TIMEOUT)
    assert agree_within(parse("1"), 4) is Verdict.UNKNOWN


def test_agreement_runs_the_interpreter_only_once_the_machine_converged(monkeypatch):
    calls = []
    real_run = lang.run
    monkeypatch.setattr(lang, "run", lambda t, fuel: calls.append(t) or real_run(t, fuel))
    assert agree_within(OMEGA, 64) is Verdict.UNKNOWN
    assert calls == []
    three = parse(r"(\f. f (f 1)) (\x. suc x)")
    assert agree_within(three, 64) is Verdict.TRUE
    assert len(calls) == 1 and calls[0] is three


def bisim_of_behaviours(t, fuel):
    # the reference: the two runs mapped to observable values, viewed as
    # sequences, and compared with seq.bisim_within
    def behaviour(d):
        return seq.of_delay(D.map(d, lang.observe_value))

    return seq.bisim_within(behaviour(evaluate(t)), behaviour(execute(compile_term(t))), fuel)


def test_agreement_is_the_bisimilarity_of_the_two_behaviours(rng):
    seen = set()
    for i in range(2000):
        t = gen_term(rng, size=rng.randrange(2, 13))
        if i % 2:
            t = App(t, Var(rng.randrange(3)))  # open, so it may get stuck on the free variable
        for fuel in (0, 1, 7, 64, 256):
            verdict = agree_within(t, fuel)
            assert verdict is bisim_of_behaviours(t, fuel), (show(t), fuel)
            seen.add(verdict)
    assert seen == {Verdict.TRUE, Verdict.UNKNOWN}


def test_generated_terms_are_closed(rng):
    for _ in range(300):
        assert lang.is_closed(gen_term(rng, size=12))


@pytest.mark.parametrize(
    "leaf, wrap",
    [
        (Lit(0), Suc),
        (Var(0), Lam),
        (Lit(0), lambda t: App(t, Lit(0))),
        (Lit(0), lambda t: App(Lit(0), t)),
    ],
    ids=["suc", "lambdas", "left-nested", "right-nested"],
)
def test_is_closed_at_any_depth(leaf, wrap):
    depth = 10**5
    binders = depth if wrap is Lam else 0
    closed, open_ = leaf, Var(binders)  # the deepest leaf, or a variable past every binder
    for _ in range(depth):
        closed, open_ = wrap(closed), wrap(open_)
    assert lang.is_closed(closed)
    assert not lang.is_closed(open_)


# --- contexts that grow, and tail calls ------------------------------------


def test_growing_context_times_out_on_both_back_ends():
    # the interpreter's pending contexts nest one level deeper per call
    t = parse(r"(\x. (\y. 3) (x (x x))) (\x. 0 (x x 3))")
    assert run(t, 256) is D.TIMEOUT and vm(t, 256) is D.TIMEOUT
    assert agree_within(t, 256) is Verdict.UNKNOWN


def assert_omega_memory_is_flat(go):
    # the peak of a timed-out Omega run must not grow with its fuel
    def timeout(fuel):
        assert go(OMEGA, fuel) is D.TIMEOUT

    peak(lambda: timeout(10))
    small, large = peak(lambda: timeout(10**4)), peak(lambda: timeout(10**5))
    assert large < 16_384 and large < 2 * small


def test_vm_tail_calls_keep_memory_flat():
    assert_omega_memory_is_flat(vm)


class CountingStack(list):
    """A continuation stack that counts its pushes and pops, and fails a run
    that makes more than ``cap`` of them."""

    def __init__(self, cap):
        super().__init__()
        self.moves, self.cap = 0, cap

    def _move(self):
        self.moves += 1
        if self.moves > self.cap:
            raise AssertionError(f"more than {self.cap} pushes and pops")

    def append(self, item):
        self._move()
        super().append(item)

    def pop(self):
        self._move()
        return super().pop()


def test_interpreter_work_per_step_is_flat(monkeypatch):
    # the growing term's context deepens by one `suc` a step; the pushes and
    # pops per step must not grow with it, on the node path or through run
    t = parse(r"(\f. f f) (\f. suc (f f))")
    inner = lang._eval

    def node_path(konts, fuel):
        return D.run_fuel(lang._Call(lang._eval, t, (), konts), fuel)

    def run_path(konts, fuel):
        with monkeypatch.context() as m:
            m.setattr(lang, "_eval", lambda term, env, _, budget: inner(term, env, konts, budget))
            return lang.run(t, fuel)

    for path in (node_path, run_path):
        per_step = []
        for fuel in (10**3, 10**4):
            konts = CountingStack(cap=16 * fuel)
            assert path(konts, fuel) is D.TIMEOUT
            per_step.append(konts.moves / fuel)
        assert 0 < per_step[1] <= per_step[0] + 0.01, path.__name__


def test_stuck_aborts_before_the_argument_on_open_terms():
    for t in (App(Var(5), OMEGA), App(Lit(1), App(Var(9), OMEGA))):
        assert run(t, 50) == vm(t, 50) == D.Converged(STUCK, 0)
    t = App(OMEGA, Var(7))
    assert run(t, 500) is D.TIMEOUT and vm(t, 500) is D.TIMEOUT


def test_a_negative_index_is_a_free_variable():
    # a variable is bound only when 0 <= index < depth; any other index is free
    for t, steps, text in ((Var(-1), 0, "#-1"), (App(Lam(Var(-2)), Lit(1)), 1, r"(\x. #-2) 1")):
        assert lang.run(t, 9) == run(t, 9) == lang.run_code(compile_term(t), 9) == vm(t, 9) == D.Converged(STUCK, steps)
        assert agree_within(t, 50) is Verdict.TRUE
        assert (lang.is_closed(t), show(t)) == (False, text)


def test_one_run_observed_twice_gives_the_same_answer(rng):
    # through a public bind first, which splices the run, then directly
    terms = [parse(r"(\f. f (f 1)) (\x. suc x)"), parse(r"suc ((\x. suc x) ((\y. y) 2))")]
    terms += [gen_term(rng, size=10) for _ in range(200)]
    for t in terms:
        d = evaluate(t)
        seen = D.run_fuel(D.map(d, lang.observe_value), 128)
        r = D.run_fuel(d, 128)
        assert D.run_fuel(d, 128) == r
        if r is D.TIMEOUT:
            assert seen is D.TIMEOUT
        else:
            assert seen == D.Converged(lang.observe_value(r.value), r.steps)


# --- the machine's step node -----------------------------------------------


def test_vm_runs_leave_no_reference_cycles():
    # each run must be freed by reference counting alone, with no collector
    t = parse(r"(\f. f (f 1)) (\x. suc x)")
    gc.disable()
    try:
        gc.collect()
        for _ in range(100):
            D.run_fuel(execute(compile_term(t)), 10)
        assert gc.collect() == 0
        for _ in range(100):
            agree_within(t, 10)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_vm_step_observed_twice_is_the_same_layer():
    d = execute(compile_term(parse(r"(\f. f (f 1)) (\x. suc x)")))
    first = d.observe()
    assert d.observe() is first
    assert first.rest.observe() is first.rest.observe()


def test_vm_step_observed_again_later_returns_its_memo(monkeypatch):
    d = execute(compile_term(parse(r"(\f. f (f 1)) (\x. suc x)")))
    first = d.observe()
    assert D.run_fuel(first.rest, 10) == D.Converged(Nat(3), 2)
    calls = counted_loop(monkeypatch, "_run")
    assert d.observe() is first
    assert D.run_fuel(d, 10) == D.Converged(Nat(3), 3)
    assert calls[0] == 0


def alternately(a, b, fuel):
    # one layer of each run in turn, as run_fuel would take them
    runs = [[a, None, 0], [b, None, 0]]
    for _ in range(fuel + 1):
        for r in runs:
            if r[1] is None:
                ob = r[0].observe()
                if isinstance(ob, D.Now):
                    r[1] = D.Converged(ob.value, r[2])
                elif r[2] < fuel:
                    r[0], r[2] = ob.rest, r[2] + 1
                else:
                    r[1] = D.TIMEOUT
    return runs[0][1], runs[1][1]


def test_vm_runs_of_the_same_code_share_no_stack(rng):
    terms = [parse(r"(\f. f (f 1)) (\x. suc x)"), OMEGA]
    terms += [gen_term(rng, size=10) for _ in range(200)]
    for t in terms:
        code = compile_term(t)
        alone = D.run_fuel(execute(code), 64)
        assert alternately(execute(code), execute(code), 64) == (alone, alone)


def test_non_terms_and_non_instructions_are_type_errors():
    for t in ("x", App(Lit(0), "x"), App(Var(5), "x"), Lam(lang.Ret())):
        for read in (compile_term, show, lang.is_closed):
            with pytest.raises(TypeError, match="not a term"):
                read(t)
    for code in ((lang.PushLit(1), "x"), ("x",), (lang.PushClo((lang.Ret(), Lit(0))),)):
        with pytest.raises(TypeError, match="not an instruction"):
            lang.disassemble(code)
    with pytest.raises(TypeError, match="not an instruction"):
        D.run_fuel(execute((lang.PushLit(1), "x")), 1)
    with pytest.raises(TypeError, match="not a term"):
        D.run_fuel(evaluate(App(Lit(0), "x")), 1)
    # a non-term is reported before negative fuel
    with pytest.raises(TypeError, match="not a term"):
        agree_within("x", -1)
    with pytest.raises(ValueError, match="negative fuel: -1"):
        agree_within(OMEGA, -1)


def test_compile_term_is_stack_safe():
    t = parse("suc (" * 100_000 + "0" + ")" * 100_000)
    assert len(compile_term(t)) == 100_001


# --- the interpreter's step node -------------------------------------------


def test_interpreter_step_observed_twice_is_the_same_layer():
    d = evaluate(parse(r"(\f. f (f 1)) (\x. suc x)"))
    first = d.observe()
    assert d.observe() is first
    assert first.rest.observe() is first.rest.observe()


def test_interpreter_step_observed_again_later_returns_its_memo(monkeypatch):
    d = evaluate(parse(r"(\f. f (f 1)) (\x. suc x)"))
    first = d.observe()
    assert D.run_fuel(first.rest, 10) == D.Converged(Nat(3), 2)
    calls = counted_loop(monkeypatch, "_eval")
    assert d.observe() is first
    assert D.run_fuel(d, 10) == D.Converged(Nat(3), 3)
    assert calls[0] == 0


def test_interpreter_runs_of_the_same_term_share_no_stack(rng):
    terms = [parse(r"(\f. f (f 1)) (\x. suc x)"), OMEGA]
    terms += [gen_term(rng, size=10) for _ in range(200)]
    for t in terms:
        alone = run(t, 64)
        assert alternately(evaluate(t), evaluate(t), 64) == (alone, alone)


def test_interpreter_runs_leave_no_reference_cycles():
    t = parse(r"(\f. f (f 1)) (\x. suc x)")
    gc.disable()
    try:
        gc.collect()
        for _ in range(100):
            run(t, 10)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- run_fuel over a run that someone holds ---------------------------------

@pytest.mark.parametrize("back_end", BACK_ENDS)
def test_run_fuel_keeps_no_node_of_a_held_run(back_end):
    start = BACK_ENDS[back_end][0]

    def held(fuel):
        d = start(OMEGA)
        return peak(lambda: D.run_fuel(d, fuel))

    held(10)
    assert held(10**5) <= held(10**4) + 2048


@pytest.mark.parametrize("back_end", BACK_ENDS)
def test_run_fuel_inside_a_held_run_answers_as_run_does(back_end, rng, monkeypatch):
    # k layers observed, run_fuel on the node they reach at fuel a, again on
    # the head at fuel b, then an observed walk of the head at b + 5
    start, answer, loop = BACK_ENDS[back_end]
    calls = counted_loop(monkeypatch, loop)
    terms = [THREE, parse(r"suc ((\x. suc x) ((\y. y) 2))"), OMEGA]
    terms += [gen_term(rng, size=10) for _ in range(200)]
    for t in terms:
        k, a, b = rng.randrange(6), rng.randrange(24), rng.randrange(40)
        d = inner = start(t)
        taken = 0
        while taken < k and type(ob := inner.observe()) is D.Later:
            inner, taken = ob.rest, taken + 1
        want = answer(t, taken + a)
        if want is not D.TIMEOUT:
            want = D.Converged(want.value, want.steps - taken)
        assert D.run_fuel(inner, a) == want, (show(t), k, a)
        before = calls[0]
        assert observed(inner, a) == want, (show(t), k, a)
        assert calls[0] == before  # the steps run_fuel took are kept, not run again
        assert D.run_fuel(d, b) == answer(t, b), (show(t), k, a, b)
        assert observed(d, b + 5) == answer(t, b + 5), (show(t), k, a, b)


@pytest.mark.parametrize("back_end", BACK_ENDS)
def test_a_timed_out_run_asked_for_more_answers_as_run_does(back_end, rng):
    start, answer, _ = BACK_ENDS[back_end]
    for t in [THREE, OMEGA] + [gen_term(rng, size=10) for _ in range(100)]:
        for fuel in (0, 1, 2, 9):
            d = start(t)
            assert D.run_fuel(d, fuel) == answer(t, fuel)
            assert D.run_fuel(d, 10 * fuel) == answer(t, 10 * fuel), (show(t), fuel)


@pytest.mark.parametrize("back_end", BACK_ENDS)
def test_run_fuel_keeps_no_node_of_a_held_run_asked_again(back_end):
    start = BACK_ENDS[back_end][0]

    def again(fuel):
        d = start(OMEGA)
        D.run_fuel(d, fuel)
        return peak(lambda: D.run_fuel(d, 2 * fuel))

    again(10)
    assert again(10**5) <= again(10**4) + 2048


@pytest.mark.parametrize("back_end", BACK_ENDS)
def test_a_held_run_asked_three_times_answers_as_run_does(back_end, rng):
    start, answer, _ = BACK_ENDS[back_end]
    for t in [THREE, OMEGA] + [gen_term(rng, size=rng.randrange(2, 13)) for _ in range(300)]:
        d = start(t)
        a, b = rng.randrange(40), rng.randrange(40)
        for fuel in (a, b, b + 5):
            assert D.run_fuel(d, fuel) == answer(t, fuel), (show(t), a, b, fuel)


@pytest.mark.parametrize("back_end", BACK_ENDS)
def test_a_scan_of_a_run_runs_its_loop_once(back_end, monkeypatch):
    start, answer, loop = BACK_ENDS[back_end]
    calls = counted_loop(monkeypatch, loop)
    for t, fuel in ((THREE, 10), (THREE, 2), (OMEGA, 10**4)):
        want = answer(t, fuel)
        calls[0] = 0
        got = seq.converges_within(seq.of_delay(start(t)), fuel)
        assert got == (None if want is D.TIMEOUT else seq.Witness(want.value, want.steps))
        assert calls[0] == 1, (show(t), fuel)


# --- a run asked again after an interrupt -----------------------------------

# a pinned pool: 60 terms of sizes 4 to 9, each interrupted at every third
# opcode of its first ask that its loop reaches, then asked at three fuels
INTERRUPTED = [gen_term(r, r.randrange(4, 10)) for r in [random.Random(7)] for _ in range(60)]
INTERRUPT_FUEL = 40


def interrupted_asks(back_end):
    # per term, opcode position and fuel: what an ask of the interrupted node
    # gave, and what run/run_code gives
    start, answer, loop = BACK_ENDS[back_end]
    for t in INTERRUPTED:
        wants = {fuel: answer(t, fuel) for fuel in (INTERRUPT_FUEL, 0, 3 * INTERRUPT_FUEL)}
        for n in range(1, 1000, 3):
            d = start(t)
            with interrupt_at(n, getattr(lang, loop)) as fired:
                try:
                    first = D.run_fuel(d, INTERRUPT_FUEL)
                except KeyboardInterrupt:
                    pass
            if not fired[0]:  # the whole first ask took fewer than n opcodes
                assert first == wants[INTERRUPT_FUEL], show(t)
                break
            for fuel, want in wants.items():
                try:
                    got = D.run_fuel(d, fuel)
                except D.BrokenRunError as err:
                    assert type(err.__cause__) is KeyboardInterrupt
                    got = "broken"
                yield t, n, fuel, got, want


def test_an_interrupted_interpreter_run_asked_again_answers_right_or_names_its_failure():
    for t, n, fuel, got, want in interrupted_asks("interpreter"):
        assert got in ("broken", want), (show(t), n, fuel)


def test_an_interrupted_vm_run_asked_again_answers_right_or_names_its_failure():
    for t, n, fuel, got, want in interrupted_asks("vm"):
        assert got in ("broken", want), (show(t), n, fuel)


# per back end, a run whose loop raises a TypeError
RAISING = {
    "interpreter": lambda: evaluate(App(Lam(Var(0)), App(Lit(0), "x"))),
    "vm": lambda: execute((lang.PushLit(1), "x")),
}


@pytest.mark.parametrize("back_end", RAISING)
def test_a_run_whose_loop_raised_is_broken_for_good(back_end):
    d = RAISING[back_end]()
    with pytest.raises(TypeError, match="^not an? "):
        D.run_fuel(d, 5)
    for ask in (lambda: D.run_fuel(d, 0), lambda: D.run_fuel(d, 10**6), d.observe,
                lambda: seq.converges_within(seq.of_delay(d), 5)):
        with pytest.raises(D.BrokenRunError) as broken:
            ask()
        assert type(broken.value.__cause__) is TypeError


@pytest.mark.parametrize("back_end", RAISING)
@pytest.mark.parametrize("first", ["observe", "scan"])
def test_a_run_whose_loop_raised_at_its_first_step_is_broken_for_good(back_end, first):
    # the first ask is not run_fuel: observe takes the node's step alone, and a scan leaps
    d = RAISING[back_end]()
    with pytest.raises(TypeError, match="^not an? "):
        if first == "observe":
            d.observe()
        else:
            seq.converges_within(seq.of_delay(d), 5)
    for ask in (lambda: D.run_fuel(d, 0), lambda: D.run_fuel(d, 10**6), d.observe):
        with pytest.raises(D.BrokenRunError) as broken:
            ask()
        assert type(broken.value.__cause__) is TypeError


def test_an_interrupted_scan_of_a_run_names_its_failure_when_pulled_again():
    s = seq.of_delay(evaluate(OMEGA))
    with interrupt_at(50, lang._eval):
        with pytest.raises(KeyboardInterrupt):
            seq.converges_within(s, 100)
    for _ in range(2):  # the failure is kept
        with pytest.raises(D.BrokenRunError):
            s.at(100)


@pytest.fixture
def built(monkeypatch):
    # a one-item list that counts the step nodes built from here on
    count = [0]
    init = lang._Call.__init__

    def counting_init(self, *args):
        count[0] += 1
        init(self, *args)

    monkeypatch.setattr(lang._Call, "__init__", counting_init)
    return count


def test_interpreter_builds_one_step_node_per_step(built):
    # the growing term's context deepens by one `suc` a step; observed a layer
    # at a time, either back end builds a node per step, and run_fuel over a
    # fresh node builds only the one it stops at
    t = parse(r"(\f. f f) (\f. suc (f f))")
    for start, _, _ in BACK_ENDS.values():
        for fuel in (10**3, 10**4):
            d = start(t)
            built[0] = 0
            assert observed(d, fuel) is D.TIMEOUT
            assert built[0] == fuel + 1  # fuel steps, and the one that ran out
            d = start(t)
            built[0] = 0
            assert D.run_fuel(d, fuel) is D.TIMEOUT
            assert built[0] == 1
    d = evaluate(THREE)
    built[0] = 0
    assert D.run_fuel(d, 3) == D.Converged(Nat(3), 3) and built[0] == 0


# --- runs that only want the answer ----------------------------------------


def test_run_and_run_code_agree_with_the_node_path(rng):
    # the budgeted loops against run_fuel over step nodes, on a pinned pool
    # that includes open terms, which may get stuck on their free variable
    seen = set()
    for i in range(1500):
        t = gen_term(rng, size=rng.randrange(2, 13))
        if i % 2:
            t = App(t, Var(rng.randrange(3)))
        code = compile_term(t)
        for fuel in (0, 1, 2, 7, 64, 256):
            want = D.run_fuel(evaluate(t), fuel)
            assert lang.run(t, fuel) == want, (show(t), fuel)
            assert lang.run_code(code, fuel) == D.run_fuel(execute(code), fuel), (show(t), fuel)
            seen.add(want if want is D.TIMEOUT else type(want.value))
    assert seen == {D.TIMEOUT, Nat, type(STUCK), lang.Closure}


def test_run_and_run_code_keep_the_run_fuel_contract():
    three = parse(r"(\f. f (f 1)) (\x. suc x)")
    for fuel, want in ((2, D.TIMEOUT), (3, D.Converged(Nat(3), 3)), (10**30, D.Converged(Nat(3), 3))):
        assert lang.run(three, fuel) == lang.run_code(compile_term(three), fuel) == want
    for t in (App(App(Lit(1), Lit(2)), OMEGA), App(Var(5), OMEGA), App(Lit(1), App(Var(9), OMEGA))):
        # stuck before the diverging argument runs
        assert lang.run(t, 50) == lang.run_code(compile_term(t), 50) == D.Converged(STUCK, 0)
    for fuel in (-1, -10**30):
        with pytest.raises(ValueError, match=f"negative fuel: {fuel}"):
            lang.run(OMEGA, fuel)
        with pytest.raises(ValueError, match=f"negative fuel: {fuel}"):
            lang.run_code(compile_term(OMEGA), fuel)
    # negative fuel is reported before a non-term, as run_fuel reports it
    with pytest.raises(ValueError, match="negative fuel: -1"):
        lang.run("x", -1)
    for t in ("x", App(Lit(0), "x")):
        with pytest.raises(TypeError, match="not a term"):
            lang.run(t, 1)
    with pytest.raises(TypeError, match="not an instruction"):
        lang.run_code((lang.PushLit(1), "x"), 1)


def test_fuel_that_is_not_an_integer_is_rejected():
    three = parse(r"(\f. f (f 1)) (\x. suc x)")
    for fuel in (1.5, 2.0, 10.0):
        with pytest.raises(TypeError):
            lang.run(three, fuel)
        with pytest.raises(TypeError):
            lang.run_code(compile_term(three), fuel)
        with pytest.raises(TypeError):
            agree_within(three, fuel)


def test_runs_build_no_step_node_on_the_way(built):
    three = parse(r"(\f. f (f 1)) (\x. suc x)")
    for t, fuel, nodes in ((three, 3, 0), (three, 2, 1), (OMEGA, 10**4, 1)):
        for go in (lang.run, lambda t, fuel: lang.run_code(compile_term(t), fuel)):
            built[0] = 0
            go(t, fuel)
            assert built[0] == nodes  # only the step a timed-out run stops at


def test_runs_that_only_want_the_answer_keep_memory_flat():
    assert_omega_memory_is_flat(lang.run)
    code = compile_term(OMEGA)
    assert_omega_memory_is_flat(lambda t, fuel: lang.run_code(code, fuel))


# --- memory on a growing call stack -----------------------------------------


def growing_stack_peaks(fuel=10**5):
    # one more pending call a step, none of them a tail call; the peaks of
    # lang.run and lang.run_code at `fuel`, in bytes
    t = parse(r"(\f. f f) (\f. suc (f f))")
    code = compile_term(t)
    return peak(lambda: lang.run(t, fuel)), peak(lambda: lang.run_code(code, fuel))


def test_vm_frames_keep_a_pending_call_in_three_entries():
    # code, pc and env as three entries of the frame stack: about 7.5 MB at
    # 10^5 pending calls, against 12 MB with a tuple per frame
    assert growing_stack_peaks()[1] < 8_000_000


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 15: a VM frame keeps the caller's environment where the code after the call reads none")
def test_vm_peak_on_a_growing_stack_is_at_most_four_times_the_interpreters():
    run_peak, vm_peak = growing_stack_peaks()
    assert vm_peak <= 4 * run_peak
