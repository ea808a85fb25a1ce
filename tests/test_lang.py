import gc
import random
import tracemalloc

import pytest

from partiality import delay as D
from partiality import lang, seq
from partiality.lang import (
    App, Lam, Lit, Nat, STUCK, Suc, Var, OMEGA,
    agree_within, compile_term, evaluate, execute, gen_term, parse, show,
)
from partiality.seq import Verdict


def run(t, fuel=1000):
    return D.run_fuel(evaluate(t), fuel)


def vm(t, fuel=1000):
    return D.run_fuel(execute(compile_term(t)), fuel)


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
    def peak(n):
        src = "\\x. " * n + "x"
        gc.collect()  # empties the free lists, which would hide some allocations
        tracemalloc.start()
        try:
            parse(src)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1000), peak(2000)
    assert large < 2.5 * small and large < 2_000_000


def test_numerals_are_decimal_digits():
    with pytest.raises(lang.LangError) as ei:
        parse("²")  # superscript two is a digit, but not a decimal one
    assert ei.value.pos == 0 and "stray character" in str(ei.value)
    assert parse("١٢") == Lit(12)  # Arabic-Indic one, two


def test_show_prints_a_free_index():
    assert show(Var(3)) == "#3"


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


def test_generated_terms_are_closed(rng):
    for _ in range(300):
        assert lang.is_closed(gen_term(rng, size=12))


def test_interpreter_vocabulary_aliases():
    assert lang.eval is lang.evaluate
    assert lang.compile is lang.compile_term
    assert lang.exec is lang.execute


# --- contexts that grow, and tail calls ------------------------------------


def test_growing_context_times_out_on_both_back_ends():
    # the interpreter's pending contexts nest one level deeper per call
    t = parse(r"(\x. (\y. 3) (x (x x))) (\x. 0 (x x 3))")
    assert run(t, 256) is D.TIMEOUT and vm(t, 256) is D.TIMEOUT
    assert agree_within(t, 256) is Verdict.UNKNOWN


def test_vm_tail_calls_keep_memory_flat():
    def peak(fuel):
        gc.collect()
        tracemalloc.start()
        try:
            assert vm(OMEGA, fuel) is D.TIMEOUT
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)
    small, large = peak(10**4), peak(10**5)
    assert large < 16_384 and large < 2 * small


def test_interpreter_work_per_step_is_flat(monkeypatch):
    # the growing term's context deepens by one `suc` a step; the binds built
    # per step must not grow with it (a cap stops a run that builds too many)
    built, cap = [0], [0]
    init = D._Bind.__init__

    def counting_init(self, src, f):
        built[0] += 1
        if built[0] > cap[0]:
            raise AssertionError(f"more than {cap[0]} binds built")
        init(self, src, f)

    monkeypatch.setattr(D._Bind, "__init__", counting_init)
    t = parse(r"(\f. f f) (\f. suc (f f))")
    per_step = []
    for fuel in (10**3, 10**4):
        built[0], cap[0] = 0, 4 * fuel
        assert run(t, fuel) is D.TIMEOUT
        per_step.append(built[0] / fuel)
    assert per_step[1] <= per_step[0] + 0.01


def test_stuck_aborts_before_the_argument_on_open_terms():
    for t in (App(Var(5), OMEGA), App(Lit(1), App(Var(9), OMEGA))):
        assert run(t, 50) == vm(t, 50) == D.Converged(STUCK, 0)
    t = App(OMEGA, Var(7))
    assert run(t, 500) is D.TIMEOUT and vm(t, 500) is D.TIMEOUT


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
    calls = [0]
    run = lang._run

    def counting_run(*args):
        calls[0] += 1
        return run(*args)

    monkeypatch.setattr(lang, "_run", counting_run)
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
    for t in ("x", App(Lit(0), "x"), Lam(lang.Ret())):
        with pytest.raises(TypeError, match="not a term"):
            compile_term(t)
    with pytest.raises(TypeError, match="not an instruction"):
        D.run_fuel(execute((lang.PushLit(1), "x")), 1)
    with pytest.raises(TypeError, match="not a term"):
        D.run_fuel(evaluate(App(Lit(0), "x")), 1)


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
    calls = [0]
    inner = lang._eval

    def counting_eval(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(lang, "_eval", counting_eval)
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


def test_interpreter_builds_one_step_node_per_step(monkeypatch):
    # the growing term's context deepens by one `suc` a step
    built = [0]
    init = lang._Eval.__init__

    def counting_init(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(lang._Eval, "__init__", counting_init)
    t = parse(r"(\f. f f) (\f. suc (f f))")
    for fuel in (10**3, 10**4):
        d = evaluate(t)
        built[0] = 0
        assert D.run_fuel(d, fuel) is D.TIMEOUT
        assert built[0] == fuel + 1  # fuel steps, and the one that ran out
