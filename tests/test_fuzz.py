"""Differential fuzzing: each promise is checked against a second account of it.

* A random tree of ``Seq`` operations agrees cell for cell with the same tree
  built on ``Delay`` and seen through ``of_delay``; ``unshift`` and ``lub``,
  which ``Delay`` lacks, are read off the convergence pair, as in the model of
  ``tests/test_model.py``.
* The interpreter and the stack machine give the same value after the same
  number of steps on random closed and open terms, and ``show`` round-trips
  through ``parse`` on the closed ones.

Examples are derandomized, so every run draws the same inputs.  Deep inputs
come at the end; a known defect that belongs to later work is a strict
``xfail`` case there.  The deep programs that the CLI answers are the 20
deep recipe lines of ``tests/data/cli_answers.jsonl``, beside its 116 fixed
argv and 500 draws, and its replay asks each twice.  The deep-input tests here
check that those lines hold the answers they state, so the one argv this file
asks the CLI is the ``search`` that still ends in a traceback (ROADMAP item 3).
"""

import random
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from partiality import lang, seq
from partiality import delay as D
import cli_answers
from helpers import laters_n, prefix, run_main

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


def build(t):
    """(seq, delay, k, v): a tree on both carriers and its convergence pair, k = inf for silence."""
    op = t[0]
    if op == "unit":
        return seq.unit(t[1]), D.now(t[1]), 0, t[1]
    if op == "bottom":
        return seq.bottom(), D.never(), inf, 0
    if op == "delay":
        d = laters_n(D.now(t[2]), t[1])
        return seq.of_delay(d), d, t[1], t[2]
    if op == "bind":
        (s, d, k, v), (s2, d2, j, w) = build(t[1]), build(t[2])
        f, g = lambda a: seq.map(s2, lambda b: 10 * a + b), lambda a: D.map(d2, lambda b: 10 * a + b)
        return seq.bind(s, f), D.bind(d, g), k + j, 10 * v + w
    s, d, k, v = build(t[-1] if op == "lub" else t[1])
    if op == "shift":
        return seq.shift(s), D.later(d), k + 1, v
    if op == "map":
        return seq.map(s, lambda a: a + t[2]), D.map(d, lambda a: a + t[2]), k, v + t[2]
    if op == "scanned":
        s.at(t[2])
        return s, d, k, v
    if op == "unshift":
        u, k = seq.unshift(s), max(k - 1, 0)
    else:  # members from t[1] on are s; the Cantor order meets its done cell first at member t[1]
        u, k = seq.lub(lambda i: s if i >= t[1] else seq.bottom()), seq.cantor_pair(t[1], k) if k < inf else k
    # past CELLS the delay may as well be silent: no test looks that far
    return u, laters_n(D.now(v), k) if k <= CELLS else D.never(), k, v


@FUZZ
@given(TREES)
def test_seq_trees_agree_with_delay_trees(t):
    s, d, k, v = build(t)
    cells = prefix(s, CELLS)
    assert cells == prefix(seq.of_delay(d), CELLS)
    assert seq.converges_within(s, CELLS) == (seq.Witness(v, k) if k <= CELLS else None)
    if s is seq.bottom():
        assert all(c is seq.PENDING for c in cells)


@FUZZ
@given(TREES)
def test_to_delay_of_seq_trees_agrees_with_delay_trees(t):
    s, d, _, _ = build(t)
    assert D.run_fuel(seq.to_delay(s), CELLS) == D.run_fuel(d, CELLS)


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


# --- deep inputs; a known defect is a strict xfail naming its ROADMAP item ---


_RECIPES = [line for line in cli_answers.read() if "deep" in line]


def _pinned(argv, answer):
    # whether a deep recipe line of the CLI answer corpus holds `argv` with `answer`, (code, stdout, stderr);
    # the corpus replay asks each such argv twice, so no argv is asked here
    code, out, err = answer
    held = {"code": code, "stdout": cli_answers.sha(out), "stderr": cli_answers.sha(err)}
    return any(cli_answers.argv(line) == argv and line.items() >= held.items() for line in _RECIPES)


def test_deep_program_runs_without_a_traceback():
    argv = ["run", "suc (" * 400 + "0" + ")" * 400]
    assert _pinned(argv, (0, "now 400 steps=0\n", ""))


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
    assert _pinned(["run", program, "--fuel", fuel], answer)


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
    assert _pinned(["vm", program], answer)


def test_compile_lists_a_deep_program():
    listing = "pushlit 0\n" + "add1\n" * 3000
    assert _pinned(["compile", "suc (" * 3000 + "0" + ")" * 3000], (0, listing, ""))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3: lfp unrolling recurses once per element")
def test_deep_search_runs_without_a_traceback():
    try:
        answer = run_main(["search", "ge:1100", "0", "--fuel", "1000000"])
    except RecursionError:
        answer = "RecursionError"  # a plain value, so the report stays small
    assert answer == (0, f"found 1100 index={1101 * 1102 // 2}\n", "")


def _unshift_shift(s, n):
    for _ in range(n):
        s = seq.unshift(seq.shift(s))
    return s


def _unshifts_over_shifts(s, n):
    for _ in range(n):
        s = seq.shift(s)
    for _ in range(n):
        s = seq.unshift(s)
    return s


@pytest.mark.parametrize(
    "build, n",
    [(_unshift_shift, 1000), (_unshift_shift, 10**5), (_unshifts_over_shifts, 10**5)],
    ids=["nested-1000", "nested-1e5", "unshifts-over-shifts-1e5"],
)
def test_deep_unshift_answers_without_a_traceback(build, n):
    s = build(seq.unit(7), n)
    try:
        w = seq.converges_within(s, 0)
    except RecursionError:
        w = "RecursionError"
    assert w == seq.Witness(7, 0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 13: each lub level pulls the one below it through a nested Python call")
def test_a_deep_lub_tower_answers_without_a_traceback():
    s = seq.unit(7)
    for _ in range(10**5):
        s = seq.lub(lambda i, below=s: below)
    try:
        w = seq.converges_within(s, 0)
    except RecursionError:
        w = "RecursionError"
    assert w == seq.Witness(7, 0)
