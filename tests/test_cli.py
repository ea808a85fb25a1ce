import gc
import os
import shlex
import subprocess
import sys
import tracemalloc

import pytest

import partiality
from partiality import cli, seq
from partiality.cli import main
from partiality.delay import TIMEOUT
import cli_answers
from cli_answers import NINES
from helpers import run_main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_converging(capsys):
    code, out, _ = run_cli(capsys, "run", r"(\x. x) 5")
    assert code == 0 and out == "now 5 steps=1\n"


def test_run_closure_result(capsys):
    code, out, _ = run_cli(capsys, "run", r"\x. x")
    assert code == 0 and out == "now <closure> steps=0\n"


def test_run_timeout(capsys):
    code, out, _ = run_cli(capsys, "run", r"(\x. x x) (\x. x x)", "--fuel", "40")
    assert code == 2 and out == "timeout fuel=40\n"


def test_run_stuck(capsys):
    code, out, _ = run_cli(capsys, "run", "1 2")
    assert code == 3 and out == "stuck\n"


def test_run_parse_error(capsys):
    code, out, err = run_cli(capsys, "run", "(1")
    assert code == 1 and out == "" and "error:" in err


def test_run_from_file(tmp_path, capsys):
    p = tmp_path / "prog.lam"
    p.write_text(r"suc ((\x. suc x) 3)")
    code, out, _ = run_cli(capsys, "run", str(p))
    assert code == 0 and out == "now 5 steps=1\n"


def test_vm_agrees_with_run(capsys):
    src = r"(\f. f (f 1)) (\x. suc x)"
    c1, o1, _ = run_cli(capsys, "run", src)
    c2, o2, _ = run_cli(capsys, "vm", src)
    assert (c1, o1) == (c2, o2) == (0, "now 3 steps=3\n")


@pytest.mark.parametrize("command", ["run", "vm"])
def test_big_naturals_print_in_full(capsys, command):
    # past 4 300 digits, Python's int-to-text conversion raises by default
    assert run_cli(capsys, command, "suc " + "9" * 4300) == (0, "now 1" + "0" * 4300 + " steps=0\n", "")


def test_compile_listing(capsys):
    code, out, _ = run_cli(capsys, "compile", r"(\x. suc x) 1")
    assert code == 0
    assert out.splitlines() == ["pushclo:", "  pushvar 0", "  add1", "  ret", "pushlit 1", "apply"]


def test_ispositive_positive(capsys):
    code, out, _ = run_cli(capsys, "ispositive", "1/1")
    assert code == 0 and out == "positive index=3\n"


def test_ispositive_negative(capsys):
    code, out, _ = run_cli(capsys, "ispositive", "-3/2")
    assert code == 0 and out == "negative index=2\n"


def test_ispositive_negative_unit(capsys):
    code, out, _ = run_cli(capsys, "ispositive", "-1/1", "--fuel", "10")
    assert code == 0 and out == "negative index=3\n"


def test_search_negative_stream_start(capsys):
    code, out, _ = run_cli(capsys, "search", "ge:0", "-2:1")
    assert code == 0 and out.startswith("found 0 ")


def test_ispositive_zero_is_unknown(capsys):
    code, out, _ = run_cli(capsys, "ispositive", "0", "--fuel", "123")
    assert code == 2 and out == "unknown fuel=123\n"


def test_ispositive_bad_rational(capsys):
    code, _, err = run_cli(capsys, "ispositive", "1.5")
    assert code == 1 and "error:" in err


def test_search_found(capsys):
    code, out, _ = run_cli(capsys, "search", "even", "1:1")
    assert code == 0 and out == "found 2 index=3\n"


_SUITES = ["order-laws", "unit-injective", "flat-order", "monad-laws", "roundtrips", "lub-oracle", "lub-guard"]


def _all_laws_pass(count):
    # what `laws` prints when every suite passes all of its `count` cases
    return "".join(f"{name}: {count}/{count}\n" for name in _SUITES) + "all suites passed\n"


@pytest.mark.parametrize(
    "argv, answer",
    [
        (["ispositive", NINES + "/7"], (0, "positive index=1\n", "")),
        (["ispositive", "-" + NINES + "/1"], (0, "negative index=1\n", "")),
        (["search", "even", NINES + ":1"], (0, "found 1" + "0" * 4400 + " index=3\n", "")),
        (["search", "ge:" + NINES, "0", "--fuel", "10"], (2, "unknown fuel=10\n", "")),
    ],
)
def test_big_integer_operands(capsys, argv, answer):
    assert run_cli(capsys, *argv) == answer


@pytest.mark.parametrize(
    "argv, answer",
    [
        (["ispositive", "1/3", "--fuel", NINES], (0, "positive index=7\n", "")),
        (["run", "1", "--fuel", NINES], (0, "now 1 steps=0\n", "")),
        (["vm", "1", "--fuel=" + NINES], (0, "now 1 steps=0\n", "")),
        (["search", "even", "1:1", "--fuel", NINES], (0, "found 2 index=3\n", "")),
        (["run", "1", "--fuel", "-" + NINES], (1, "", "error: negative fuel: -" + NINES + "\n")),
        (["laws", "--count", "-" + NINES], (1, "", "error: negative count: -" + NINES + "\n")),
        # the same options at everyday sizes
        (["laws", "--seed", "0", "--count", "5"], (0, _all_laws_pass(5), "")),
        *[(["laws", "--seed", str(seed)], (0, _all_laws_pass(100), "")) for seed in range(6)],
        (["vm", r"(\x. x x) (\x. x x)", "--fuel", "40"], (2, "timeout fuel=40\n", "")),
        (["run", "--fuel", "40", r"(\x. x x) (\x. x x)"], (2, "timeout fuel=40\n", "")),  # read by argparse
        (["search", "ge:500", "0", "--fuel", "200000"], (0, "found 500 index=125751\n", "")),
        (["search", "even", "1:2", "--fuel", "5000"], (2, "unknown fuel=5000\n", "")),  # bottom all the way down
        (["search", "--fuel=5000", "even", "1:2"], (2, "unknown fuel=5000\n", "")),  # read by argparse
        (["ispositive", "0", "--fuel", "10"], (2, "unknown fuel=10\n", "")),
        (["ispositive", "1/100000", "--fuel", "300000"], (0, "positive index=200001\n", "")),  # one long pull
    ],
)
def test_big_integer_options(capsys, argv, answer):
    # a huge fuel only on a converging question: a silent one would spend all of it
    assert run_cli(capsys, *argv) == answer


def test_laws_take_a_big_seed(capsys):
    first = run_cli(capsys, "laws", "--seed", NINES, "--count", "1")
    assert first[0] == 0 and first == run_cli(capsys, "laws", "--seed", NINES, "--count", "1")


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


def test_out_of_fuel_reports_print_a_big_fuel_in_full(capsys):
    fuel = 10**4400
    assert cli._report_run(TIMEOUT, fuel) == 2 and cli._report_witness(seq.bottom(), fuel, str) == 2
    assert capsys.readouterr().out == f"timeout fuel=1{'0' * 4400}\nunknown fuel=1{'0' * 4400}\n"


@pytest.mark.parametrize(
    "argv, option",
    [(["run", "1", "--fuel", "1.5"], "--fuel"), (["laws", "--seed", "1.5"], "--seed"), (["laws", "--count", "1.5"], "--count")],
)
def test_a_non_integer_option_is_refused_as_type_int_refuses_it(capsys, argv, option):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    err = capsys.readouterr().err
    assert stop.value.code == 1 and err.endswith(f"error: argument {option}: invalid int value: '1.5'\n")


@pytest.mark.parametrize(
    "argv, out",
    [
        (["search", "eq: +7_0 ", "5:6_5"], "found 70 index=3\n"),
        (["search", "ge:0", "٠:٣٥"], "found 0 index=1\n"),  # Arabic-Indic digits
        (["ispositive", "٣/٠٢"], "positive index=2\n"),
    ],
)
def test_integer_operands_are_read_as_int_reads_them(capsys, argv, out):
    assert run_cli(capsys, *argv) == (0, out, "")


def test_search_unknown(capsys):
    code, out, _ = run_cli(capsys, "search", "eq:7", "0:2", "--fuel", "300")
    assert code == 2 and out == "unknown fuel=300\n"


def test_search_bad_predicate(capsys):
    code, _, err = run_cli(capsys, "search", "prime", "1:1")
    assert code == 1 and "unknown predicate" in err


def test_laws_all_pass(capsys):
    code, out, _ = run_cli(capsys, "laws", "--seed", "7", "--count", "25")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all suites passed"
    assert all(": 25/25" in ln for ln in lines[:-1])


def test_laws_are_reproducible(capsys):
    _, o1, _ = run_cli(capsys, "laws", "--seed", "3", "--count", "10")
    _, o2, _ = run_cli(capsys, "laws", "--seed", "3", "--count", "10")
    assert o1 == o2


@pytest.mark.parametrize(
    "argv",
    [[], ["run"], ["run", "5", "--bogus"], ["run", "5", "--fuel", "x"], ["laws", "--fuel", "5"]],
)
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    out = capsys.readouterr()
    assert stop.value.code == 1 and out.out == "" and out.err.startswith("usage:")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0 and capsys.readouterr().out.startswith("usage:")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", r"(\x. x) 5"],
        ["vm", r"(\x. x) 5"],
        ["ispositive", "0"],
        ["search", "even", "1:1"],
    ],
)
def test_negative_fuel_is_bad_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--fuel", "-1")
    assert code == 1 and out == "" and "negative fuel" in err


@pytest.mark.parametrize("command", ["run", "vm", "compile"])
def test_unreadable_program_path_is_bad_input(tmp_path, capsys, command):
    code, out, err = run_cli(capsys, command, str(tmp_path))
    assert code == 1 and out == "" and err.startswith("error: ")


def test_negative_count_is_bad_input(capsys):
    code, out, err = run_cli(capsys, "laws", "--count", "-1")
    assert code == 1 and out == "" and "negative count" in err


def test_run_growing_context_times_out_like_vm(capsys):
    src = r"(\f. f f) (\f. suc (f f))"
    assert run_cli(capsys, "run", src) == run_cli(capsys, "vm", src) == (2, "timeout fuel=1000\n", "")


@pytest.mark.parametrize("command", ["run", "vm"])
def test_timeout_memory_does_not_grow_with_fuel(capsys, command):
    # the command keeps only the answer, not the steps of the run behind it
    def peak(fuel):
        gc.collect()
        tracemalloc.start()
        try:
            assert main([command, r"(\x. x x) (\x. x x)", "--fuel", str(fuel)]) == 2
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    peak(10)
    assert peak(10**4) < 2 * peak(10**3) + 4096


def test_laws_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_LAWS", [("always-fails", lambda rng: False)])
    code, out, err = run_cli(capsys, "laws", "--count", "3")
    assert (code, out, err) == (1, "always-fails: 0/3\nlaw failures detected\n", "")


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["run", r"(\x. x) 5"], 0, "now 5 steps=1\n"),
        (["run", "(1"], 1, ""),
        (["vm", r"(\x. x x) (\x. x x)", "--fuel", "5"], 2, "timeout fuel=5\n"),
        (["run", "1 2"], 3, "stuck\n"),
    ],
)
def test_module_entry_point_exit_codes(argv, code, out):
    # `python -m partiality` from a fresh interpreter that finds this package
    src = os.path.dirname(os.path.dirname(partiality.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "partiality", *argv]
    r = subprocess.run(cmd, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert (r.returncode, r.stdout) == (code, out)
    assert r.stderr.startswith("error: ") if code == 1 else r.stderr == ""


_README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
_ANSWER_CODES = {"now": 0, "positive": 0, "negative": 0, "found": 0, "timeout": 2, "stuck": 3}


def _readme_examples():
    # (argv, comment) for each line of the block under `## Command line` in README.md
    with open(_README, encoding="utf-8") as f:
        block = f.read().split("\n## Command line\n", 1)[1].split("```\n")[1]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "partiality"
        examples.append((argv, comment.strip()))
    return examples


def test_the_readme_examples_print_the_answers_they_show(capsys):
    # a comment that is an answer line is what its line prints
    answered = 0
    for argv, answer in _readme_examples():
        kind = answer.partition(" ")[0]
        if kind in _ANSWER_CODES:
            assert run_cli(capsys, *argv) == (_ANSWER_CODES[kind], answer + "\n", "")
            answered += 1
    assert answered


def test_each_argv_of_the_answer_corpus_prints_the_bytes_it_holds():
    # tests/data/cli_answers.jsonl, fixed and generated, which `python tests/cli_answers.py` rewrites;
    # each argv is asked twice in this process, and both answers must be its line
    wrong = [
        shlex.join(cli_answers.argv(line))[:80]
        for line in cli_answers.read()
        if [cli_answers.answer(line), cli_answers.answer(line)] != [line, line]
    ]
    assert wrong == []


# --- the contract on generated argv --------------------------------------------


def test_every_corpus_line_keeps_the_exit_code_contract():
    # what the corpus holds, fixed and generated: stderr is written only for bad input
    lines, empty = cli_answers.read(), cli_answers.sha("")
    assert [line for line in lines if line["code"] not in (0, 1, 2, 3) or line["code"] != 1 and line["stderr"] != empty] == []
    assert [line["draw"] for line in lines if "draw" in line] == list(range(cli_answers.DRAWS))


def test_the_seeded_draw_takes_every_choice():
    seen = set()
    for i in range(cli_answers.DRAWS):
        cli_answers.draw(i, seen)
    assert seen == {(name, option) for name, options in cli_answers.CHOICES.items() for option in options}


# --- the plain forms that main reads without argparse ------------------------


def _agrees_with_argparse(argv):
    # whatever the reader accepts, it reads as argparse does
    args = cli._read_plain(argv)
    assert args is None or args == cli._build_parser().parse_args(argv)
    return args


def test_the_plain_reader_agrees_with_argparse_on_generated_argv():
    for i in range(cli_answers.DRAWS):
        _agrees_with_argparse(cli_answers.draw(i))


@pytest.mark.parametrize(
    "argv",
    [
        ["run", ""],  # argparse reads the empty string as a positional
        ["compile", ""],
        ["search", "ge:0", "٠:٣٥", "--fuel", "٣"],  # Arabic-Indic digits
        ["ispositive", "1/3", "--fuel", NINES],
        ["run", "1", "--fuel", "1_000"],
        ["run", "vm"],  # a program that is a subcommand's name
        ["search", "search", "run", "--fuel", " 7 "],
        ["ispositive", "-3/2"],  # a negative operand
        ["search", "even", "-5:3"],
    ],
)
def test_the_plain_reader_reads_what_argparse_reads(argv):
    assert _agrees_with_argparse(argv) is not None


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["laws"],
        [],
        ["run", "1", "--fuel=5"],
        ["run", "1", "--fu", "5"],  # an abbreviation
        ["run", "--fuel", "5", "1"],  # an option before a positional
        ["run", "1", "--fuel", "5", "--fuel", "6"],  # a repeated option
        ["run", "--", "1"],
        ["ispositive", "-3/2", "--fuel", "-1"],  # a negative operand, then a negative fuel
        ["search", "even", "-5:3x"],  # an operand that is no negative number
        ["run", "1", "--fuel", "-1"],  # a negative fuel
        ["run", "1", "--fuel", "x"],  # an unreadable one
        ["run", "1", "--fuel", ""],
        ["run", "1", "--fuel"],
        ["compile", "1", "--fuel", "5"],  # compile takes no fuel
        ["run"],
        ["search", "even"],
        ["run", "1", "2"],
        ["runs", "1"],
    ],
)
def test_the_plain_reader_leaves_every_other_argv_to_argparse(argv):
    assert cli._read_plain(argv) is None


# the README examples that are plain questions: not `laws`, and no operand or fuel starting with `-`;
# `ispositive -1/1` is added to them below
_README_PLAIN = [
    argv
    for argv, _ in _readme_examples()
    if argv[0] != "laws" and not any(a.startswith("-") for a in argv if a != "--fuel")
]


def _parser_builds(monkeypatch, capsys, argv):
    calls = []
    build = cli._build_parser

    def spy():
        calls.append(argv)
        return build()

    monkeypatch.setattr(cli, "_build_parser", spy)
    try:
        main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    return len(calls)


# the three shapes the benchmark sends, so that its calls never build the parser
_BENCHMARK_PLAIN = [
    ["vm", r"(\x. x) 1", "--fuel", "256"],
    ["search", "ge:3", "-7:2", "--fuel", "1024"],
    ["ispositive", "-3/7", "--fuel", "200"],
]


@pytest.mark.parametrize("argv", _README_PLAIN + [("search", "even", "1:1"), ["ispositive", "-1/1"]] + _BENCHMARK_PLAIN)
def test_a_plain_form_does_not_build_the_parser(monkeypatch, capsys, argv):
    assert _parser_builds(monkeypatch, capsys, argv) == 0


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["laws", "--count", "1"], ["run", "--fuel", "40", r"(\x. x x) (\x. x x)"], ["ispositive", "-1/1", "--fuel", "-1"]],
)
def test_every_other_form_goes_through_argparse(monkeypatch, capsys, argv):
    assert _parser_builds(monkeypatch, capsys, argv) == 1
