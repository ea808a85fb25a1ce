"""Differential fuzzing: each promise is checked against a second account of it.

* A random tree of ``Seq`` operations agrees cell for cell with the same tree
  built on ``Delay`` and seen through ``of_delay``.
* The interpreter and the stack machine give the same value after the same
  number of steps on random closed and open terms, and ``show`` round-trips
  through ``parse`` on the closed ones.
* The CLI exits 0-3 on random and hostile argv and prints the same bytes
  when asked twice.

Examples are derandomized, so every run draws the same inputs.  Deep inputs
come at the end; a known defect that belongs to later work is a strict
``xfail`` case there.
"""

import contextlib
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from partiality import cli, lang, seq
from partiality import delay as D
from helpers import laters_n, prefix

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)


# --- two carriers ------------------------------------------------------------

CELLS = 40

_LEAVES = st.one_of(
    st.tuples(st.just("unit"), st.integers(0, 9)),
    st.just(("bottom",)),
    st.tuples(st.just("delay"), st.integers(0, 6), st.integers(0, 9)),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.just("shift"), children),
        st.tuples(st.just("unshift"), children),
        st.tuples(st.just("map"), children, st.integers(-3, 3)),
        st.tuples(st.just("bind"), children, children),
        st.tuples(st.just("lub"), st.integers(0, 3), children),
        # a sequence already scanned this far before it is composed further
        st.tuples(st.just("scanned"), children, st.integers(0, 12)),
    )


TREES = st.recursive(_LEAVES, _extend, max_leaves=12)


def build_seq(t):
    op = t[0]
    if op == "unit":
        return seq.unit(t[1])
    if op == "bottom":
        return seq.bottom()
    if op == "delay":
        return seq.of_delay(laters_n(D.now(t[2]), t[1]))
    if op == "shift":
        return seq.shift(build_seq(t[1]))
    if op == "unshift":
        return seq.unshift(build_seq(t[1]))
    if op == "map":
        return seq.map(build_seq(t[1]), lambda a: a + t[2])
    if op == "bind":
        return seq.bind(build_seq(t[1]), lambda a: seq.map(build_seq(t[2]), lambda b: 10 * a + b))
    if op == "lub":
        s = build_seq(t[2])
        return seq.lub(lambda i: s if i >= t[1] else seq.bottom())
    s = build_seq(t[1])
    s.at(t[2])
    return s


def build_delay(t):
    op = t[0]
    if op == "unit":
        return D.now(t[1])
    if op == "bottom":
        return D.never()
    if op == "delay":
        return laters_n(D.now(t[2]), t[1])
    if op == "shift":
        return D.later(build_delay(t[1]))
    if op == "unshift":
        return _unshift_delay(build_delay(t[1]))
    if op == "map":
        return D.map(build_delay(t[1]), lambda a: a + t[2])
    if op == "bind":
        return D.bind(build_delay(t[1]), lambda a: D.map(build_delay(t[2]), lambda b: 10 * a + b))
    if op == "lub":
        return _lub_delay(t[1], build_delay(t[2]))
    return build_delay(t[1])


def _unshift_delay(d):
    # one step fewer, and a value stays a value
    def layer():
        ob = d.observe()
        return ob.rest.observe() if isinstance(ob, D.Later) else ob

    return D.Delay(layer)


def _lub_delay(stage, d):
    # step n is done once member i (d from `stage` on) is done within j steps,
    # where (i, j) runs through the Cantor diagonal
    def step(n):
        i, j = seq.cantor_unpair(n)
        r = D.run_fuel(d, j) if i >= stage else D.TIMEOUT
        if r is D.TIMEOUT:
            return D.Later(D.Delay(lambda: step(n + 1)))
        return D.Now(r.value)

    return D.Delay(lambda: step(0))


@FUZZ
@given(TREES)
def test_seq_trees_agree_with_delay_trees(t):
    s = build_seq(t)
    cells = prefix(s, CELLS)
    assert cells == prefix(seq.of_delay(build_delay(t)), CELLS)
    if s.never_converges:
        assert all(c is seq.PENDING for c in cells)


@FUZZ
@given(TREES)
def test_to_delay_of_seq_trees_agrees_with_delay_trees(t):
    got = D.run_fuel(seq.to_delay(build_seq(t)), CELLS)
    assert got == D.run_fuel(build_delay(t), CELLS)


# --- two back ends -----------------------------------------------------------

FUEL = 256


def assert_back_ends_agree(t):
    r = D.run_fuel(lang.evaluate(t), FUEL)
    v = D.run_fuel(lang.execute(lang.compile_term(t)), FUEL)
    if r is D.TIMEOUT:
        assert v is D.TIMEOUT
    else:
        assert v is not D.TIMEOUT and v.steps == r.steps
        assert lang.observe_value(v.value) == lang.observe_value(r.value)


@FUZZ
@given(st.integers(0, 10**9), st.integers(0, 14))
def test_interpreter_and_vm_agree_on_random_terms(seed, size):
    t = lang.gen_term(seed, size)
    assert lang.parse(lang.show(t)) == t
    assert_back_ends_agree(t)


def open_up(t, rng):
    # some indices bumped, so a Var may point past every binder
    if isinstance(t, lang.Var):
        return lang.Var(t.index + rng.randrange(1, 4)) if rng.random() < 0.3 else t
    if isinstance(t, lang.Lam):
        return lang.Lam(open_up(t.body, rng))
    if isinstance(t, lang.App):
        return lang.App(open_up(t.fn, rng), open_up(t.arg, rng))
    if isinstance(t, lang.Suc):
        return lang.Suc(open_up(t.arg, rng))
    return t


@FUZZ
@given(st.integers(0, 10**9), st.integers(0, 14), st.sampled_from(["bump", "wrap", "both"]))
def test_interpreter_and_vm_agree_on_open_terms(seed, size, how):
    # stuckness on a free variable must abort at the same point on both sides
    rng = random.Random(seed)
    t = lang.gen_term(rng, size)
    if how != "wrap":
        t = open_up(t, rng)
    if how != "bump":
        t = lang.App(lang.Var(rng.randrange(3)), t)
    assert_back_ends_agree(t)


# --- CLI contract ------------------------------------------------------------


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


_PROGRAMS = st.one_of(
    st.sampled_from([
        r"(\x. x) 5", r"(\x. x x) (\x. x x)", r"(\f. f f) (\f. suc (f f))",
        r"(\x. (\y. 3) (x (x x))) (\x. 0 (x x 3))", "1 2", r"\x. x", "suc " * 60 + "0",
        "(1", "", " ", "#0", "\\", "suc", ")(", "é", "\x00", "-", ".",
    ]),
    st.lists(
        st.sampled_from(["\\", "x", "y", ".", "(", ")", "suc", "0", "7", " ", "#", "-"]),
        max_size=24,
    ).map("".join),
)
# fuel stays small, because a diverging program runs to the end of it
_FUEL = st.sampled_from(["0", "1", "7", "40", "300", "-1", "-0", "+3", "1_0", "", "x", "1e3", "0x10", "١٢"])
_FUEL_OPT = st.one_of(
    st.just([]),
    _FUEL.map(lambda f: ["--fuel", f]),
    _FUEL.map(lambda f: ["--fuel=" + f]),
    st.just(["--fuel"]),
)
_RATIONALS = st.sampled_from(["1", "-1", "0", "3/2", "-3/2", "1/0", "1/-2", "0.5", "1e3", "", "x", "-0/7", "1/300"])
_PREDICATES = st.sampled_from(["even", "odd", "gt:3", "ge:-2", "lt:-100", "le:5", "eq:9", "eq", "even:1", "foo", "gt:x", ""])
_STREAMS = st.sampled_from(["0", "-5:3", "7:-2", "4:0", "1:", ":1", "x", "", "-3"])
_JUNK = st.lists(
    st.sampled_from(["run", "vm", "laws", "-h", "--help", "--", "--fuel", "--bogus", "-x", "0", "", "é"]),
    max_size=5,
)

ARGV = st.one_of(
    st.tuples(st.sampled_from(["run", "vm", "compile"]), _PROGRAMS, _FUEL_OPT).map(lambda a: [a[0], a[1], *a[2]]),
    st.tuples(_RATIONALS, _FUEL_OPT).map(lambda a: ["ispositive", a[0], *a[1]]),
    st.tuples(_PREDICATES, _STREAMS, _FUEL_OPT).map(lambda a: ["search", a[0], a[1], *a[2]]),
    st.tuples(st.sampled_from(["0", "-7", "10" * 12, "x"]), st.sampled_from(["0", "1", "2", "-1", "x"])).map(
        lambda a: ["laws", "--seed", a[0], "--count", a[1]]
    ),
    _JUNK,
)


@FUZZ
@given(ARGV)
def test_cli_exits_0_to_3_and_repeats_itself(argv):
    first = run_main(argv)
    assert first[0] in (0, 1, 2, 3)
    assert run_main(argv) == first


@pytest.mark.parametrize(
    "argv, code",
    [
        (["run", r"(\x. x) 5", "--fuel", "9" * 40], 0),
        (["vm", r"(\x. x) 5", "--fuel", "9" * 40], 0),
        (["ispositive", "1/" + "9" * 30, "--fuel", "2"], 2),
        (["search", "ge:" + "9" * 30, "0", "--fuel", "3"], 2),
        (["search", "even", "-" + "9" * 30 + ":" + "9" * 30], 0),
    ],
)
def test_cli_huge_numbers_are_answers(argv, code):
    first = run_main(argv)
    assert first[0] == code
    assert run_main(argv) == first


# --- deep inputs; a known defect is a strict xfail naming its ROADMAP item ---


def run_main_or_overflow(argv):
    # a RecursionError becomes a plain value, so the report stays small
    try:
        return run_main(argv)
    except RecursionError:
        return "RecursionError"


def test_deep_program_runs_without_a_traceback():
    argv = ["run", "suc (" * 400 + "0" + ")" * 400]
    assert run_main_or_overflow(argv) == (0, "now 400 steps=0\n", "")


@pytest.mark.parametrize(
    "program, fuel, answer",
    [
        ("0 (" * 3000 + "0" + ")" * 3000, "1000", (3, "stuck\n", "")),
        (r"(\x. x) (" * 3000 + "0" + ")" * 3000, "3000", (0, "now 0 steps=3000\n", "")),
        ("suc (" * 900 + "0" + ")" * 900, "1000", (0, "now 900 steps=0\n", "")),
        ("(" * 900 + "0" + " 0)" * 900, "1000", (3, "stuck\n", "")),
        ("suc (" * 3000 + "0" + ")" * 3000, "1000", (0, "now 3000 steps=0\n", "")),
        ("(" * 3000 + "0" + " 0)" * 3000, "1000", (3, "stuck\n", "")),
        ("suc (" * 10**5 + "0" + ")" * 10**5, "1000", (0, "now 100000 steps=0\n", "")),
        ("\\x. " * 10**5 + "x", "1000", (0, "now <closure> steps=0\n", "")),
        ("(" * 10**5 + "0" + " 0)" * 10**5, "1000", (3, "stuck\n", "")),
        ("0 (" * 10**5 + "0" + ")" * 10**5, "1000", (3, "stuck\n", "")),
    ],
    ids=[
        "right-nested-0", "right-nested-id", "suc", "left-nested", "suc-3000", "left-nested-3000",
        "suc-1e5", "lambdas-1e5", "left-nested-1e5", "right-nested-1e5",
    ],
)
def test_deep_programs_run_at_the_depths_they_reach(program, fuel, answer):
    # the argument of a value function is built in the bind loop, not eagerly
    assert run_main_or_overflow(["run", program, "--fuel", fuel]) == answer


@pytest.mark.parametrize(
    "program, answer",
    [
        ("suc (" * 3000 + "0" + ")" * 3000, (0, "now 3000 steps=0\n", "")),
        ("\\x. " * 3000 + "x", (0, "now <closure> steps=0\n", "")),
        ("(" * 3000 + "0" + " 0)" * 3000, (3, "stuck\n", "")),
        ("0 (" * 3000 + "0" + ")" * 3000, (3, "stuck\n", "")),
        ("suc (" * 10**5 + "0" + ")" * 10**5, (0, "now 100000 steps=0\n", "")),
        ("\\x. " * 10**5 + "x", (0, "now <closure> steps=0\n", "")),
        ("(" * 10**5 + "0" + " 0)" * 10**5, (3, "stuck\n", "")),
        ("0 (" * 10**5 + "0" + ")" * 10**5, (3, "stuck\n", "")),
    ],
    ids=["suc", "lambdas", "left-nested", "right-nested", "suc-1e5", "lambdas-1e5", "left-nested-1e5", "right-nested-1e5"],
)
def test_vm_answers_deep_programs(program, answer):
    assert run_main_or_overflow(["vm", program]) == answer


def test_compile_lists_a_deep_program():
    listing = "pushlit 0\n" + "add1\n" * 3000
    assert run_main_or_overflow(["compile", "suc (" * 3000 + "0" + ")" * 3000]) == (0, listing, "")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3: lfp unrolling recurses once per element")
def test_deep_search_runs_without_a_traceback():
    argv = ["search", "ge:1100", "0", "--fuel", "1000000"]
    assert run_main_or_overflow(argv) == (0, f"found 1100 index={1101 * 1102 // 2}\n", "")
