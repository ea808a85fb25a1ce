import os
import shlex
import subprocess
import sys

import pytest

import partiality
from partiality import cli, seq
from partiality.delay import TIMEOUT
import cli_answers
from cli_answers import NINES
from helpers import peak, run_main


def test_run_converging():
    code, out, _ = run_main(["run", r"(\x. x) 5"])
    assert code == 0 and out == "now 5 steps=1\n"


def test_run_closure_result():
    code, out, _ = run_main(["run", r"\x. x"])
    assert code == 0 and out == "now <closure> steps=0\n"


def test_run_timeout():
    code, out, _ = run_main(["run", r"(\x. x x) (\x. x x)", "--fuel", "40"])
    assert code == 2 and out == "timeout fuel=40\n"


def test_run_stuck():
    code, out, _ = run_main(["run", "1 2"])
    assert code == 3 and out == "stuck\n"


def test_run_parse_error():
    code, out, err = run_main(["run", "(1"])
    assert code == 1 and out == "" and "error:" in err


def test_run_from_file(tmp_path):
    p = tmp_path / "prog.lam"
    p.write_text(r"suc ((\x. suc x) 3)")
    code, out, _ = run_main(["run", str(p)])
    assert code == 0 and out == "now 5 steps=1\n"


def test_vm_agrees_with_run():
    src = r"(\f. f (f 1)) (\x. suc x)"
    c1, o1, _ = run_main(["run", src])
    c2, o2, _ = run_main(["vm", src])
    assert (c1, o1) == (c2, o2) == (0, "now 3 steps=3\n")


@pytest.mark.parametrize("command", ["run", "vm"])
def test_big_naturals_print_in_full(command):
    # past 4 300 digits, Python's int-to-text conversion raises by default
    assert run_main([command, "suc " + "9" * 4300]) == (0, "now 1" + "0" * 4300 + " steps=0\n", "")


def test_compile_listing():
    code, out, _ = run_main(["compile", r"(\x. suc x) 1"])
    assert code == 0
    assert out.splitlines() == ["pushclo:", "  pushvar 0", "  add1", "  ret", "pushlit 1", "apply"]


def test_ispositive_positive():
    code, out, _ = run_main(["ispositive", "1/1"])
    assert code == 0 and out == "positive index=3\n"


def test_ispositive_negative():
    code, out, _ = run_main(["ispositive", "-3/2"])
    assert code == 0 and out == "negative index=2\n"


def test_ispositive_negative_unit():
    code, out, _ = run_main(["ispositive", "-1/1", "--fuel", "10"])
    assert code == 0 and out == "negative index=3\n"


def test_search_negative_stream_start():
    code, out, _ = run_main(["search", "ge:0", "-2:1"])
    assert code == 0 and out.startswith("found 0 ")


def test_ispositive_zero_is_unknown():
    code, out, _ = run_main(["ispositive", "0", "--fuel", "123"])
    assert code == 2 and out == "unknown fuel=123\n"


def test_ispositive_bad_rational():
    code, _, err = run_main(["ispositive", "1.5"])
    assert code == 1 and "error:" in err


def test_search_found():
    code, out, _ = run_main(["search", "even", "1:1"])
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
def test_big_integer_operands(argv, answer):
    assert run_main(argv) == answer


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
        # a rational's sign is answered in closed form, so no fuel is spent cell by cell
        (["ispositive", "0", "--fuel", "1000000000000"], (2, "unknown fuel=1000000000000\n", "")),
        (["ispositive", "-1/3000000000", "--fuel", "10000000000"], (0, "negative index=6000000001\n", "")),
    ],
)
def test_big_integer_options(argv, answer):
    # a huge fuel only on a question answered in closed form or converging: a silent one would spend all of it
    assert run_main(argv) == answer


def test_laws_take_a_big_seed():
    first = run_main(["laws", "--seed", NINES, "--count", "1"])
    assert first[0] == 0 and first == run_main(["laws", "--seed", NINES, "--count", "1"])


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
def test_a_non_integer_option_is_refused_as_type_int_refuses_it(argv, option):
    code, _, err = run_main(argv)
    assert code == 1 and err.endswith(f"error: argument {option}: invalid int value: '1.5'\n")


@pytest.mark.parametrize(
    "argv, out",
    [
        (["search", "eq: +7_0 ", "5:6_5"], "found 70 index=3\n"),
        (["search", "ge:0", "٠:٣٥"], "found 0 index=1\n"),  # Arabic-Indic digits
        (["ispositive", "٣/٠٢"], "positive index=2\n"),
    ],
)
def test_integer_operands_are_read_as_int_reads_them(argv, out):
    assert run_main(argv) == (0, out, "")


def test_search_unknown():
    code, out, _ = run_main(["search", "eq:7", "0:2", "--fuel", "300"])
    assert code == 2 and out == "unknown fuel=300\n"


def test_search_bad_predicate():
    code, _, err = run_main(["search", "prime", "1:1"])
    assert code == 1 and "unknown predicate" in err


def test_laws_all_pass():
    code, out, _ = run_main(["laws", "--seed", "7", "--count", "25"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all suites passed"
    assert all(": 25/25" in ln for ln in lines[:-1])


def test_laws_are_reproducible():
    _, o1, _ = run_main(["laws", "--seed", "3", "--count", "10"])
    _, o2, _ = run_main(["laws", "--seed", "3", "--count", "10"])
    assert o1 == o2


@pytest.mark.parametrize(
    "argv",
    [[], ["run"], ["run", "5", "--bogus"], ["run", "5", "--fuel", "x"], ["laws", "--fuel", "5"]],
)
def test_usage_errors_exit_1(argv):
    code, out, err = run_main(argv)
    assert code == 1 and out == "" and err.startswith("usage:")


def test_help_exits_0():
    code, out, _ = run_main(["--help"])
    assert code == 0 and out.startswith("usage:")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", r"(\x. x) 5"],
        ["vm", r"(\x. x) 5"],
        ["ispositive", "0"],
        ["search", "even", "1:1"],
    ],
)
def test_negative_fuel_is_bad_input(argv):
    code, out, err = run_main([*argv, "--fuel", "-1"])
    assert code == 1 and out == "" and "negative fuel" in err


@pytest.mark.parametrize("command", ["run", "vm", "compile"])
def test_unreadable_program_path_is_bad_input(tmp_path, command):
    code, out, err = run_main([command, str(tmp_path)])
    assert code == 1 and out == "" and err.startswith("error: ")


def test_negative_count_is_bad_input():
    code, out, err = run_main(["laws", "--count", "-1"])
    assert code == 1 and out == "" and "negative count" in err


def test_run_growing_context_times_out_like_vm():
    src = r"(\f. f f) (\f. suc (f f))"
    assert run_main(["run", src]) == run_main(["vm", src]) == (2, "timeout fuel=1000\n", "")


@pytest.mark.parametrize("command", ["run", "vm"])
def test_timeout_memory_does_not_grow_with_fuel(command):
    # the command keeps only the answer, not the steps of the run behind it
    def timeout(fuel):
        assert run_main([command, r"(\x. x x) (\x. x x)", "--fuel", str(fuel)])[0] == 2

    peak(lambda: timeout(10))
    assert peak(lambda: timeout(10**4)) < 2 * peak(lambda: timeout(10**3)) + 4096


def test_laws_failure_exits_1(monkeypatch):
    monkeypatch.setattr(cli, "_LAWS", [("always-fails", lambda rng: False)])
    code, out, err = run_main(["laws", "--count", "3"])
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


def test_the_readme_examples_print_the_answers_they_show():
    # a comment that is an answer line is what its line prints
    answered = 0
    for argv, answer in _readme_examples():
        kind = answer.partition(" ")[0]
        if kind in _ANSWER_CODES:
            assert run_main(argv) == (_ANSWER_CODES[kind], answer + "\n", "")
            answered += 1
    assert answered


def test_each_argv_of_the_answer_corpus_prints_the_bytes_it_holds():
    # tests/data/cli_answers.jsonl, fixed, deep and generated, which `python tests/cli_answers.py` rewrites;
    # each argv is asked twice in this process, and both answers must be its line
    wrong = [
        shlex.join(cli_answers.argv(line))[:80]
        for line in cli_answers.read()
        if [cli_answers.answer(line), cli_answers.answer(line)] != [line, line]
    ]
    assert wrong == []


# --- the contract on generated argv --------------------------------------------


def test_every_corpus_line_keeps_the_exit_code_contract():
    # what the corpus holds, fixed, deep and generated: stderr is written only for bad input
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


# one (argv, plain) row per argv the plain reader is checked on: main reads a plain argv as argparse
# would, without building the parser, and leaves every other argv to argparse, which builds it once
_FORMS = [
    (["run", ""], True),  # argparse reads the empty string as a positional
    (["compile", ""], True),
    (["search", "ge:0", "٠:٣٥", "--fuel", "٣"], True),  # Arabic-Indic digits
    (["ispositive", "1/3", "--fuel", NINES], True),
    (["run", "1", "--fuel", "1_000"], True),
    (["run", "vm"], True),  # a program that is a subcommand's name
    (["search", "search", "run", "--fuel", " 7 "], True),
    (["ispositive", "-3/2"], True),  # a negative operand
    (["search", "even", "-5:3"], True),
    (["--help"], False),
    (["laws"], False),
    ([], False),
    (["run", "1", "--fuel=5"], False),
    (["run", "1", "--fu", "5"], False),  # an abbreviation
    (["run", "--fuel", "5", "1"], False),  # an option before a positional
    (["run", "1", "--fuel", "5", "--fuel", "6"], False),  # a repeated option
    (["run", "--", "1"], False),
    (["ispositive", "-3/2", "--fuel", "-1"], False),  # a negative operand, then a negative fuel
    (["search", "even", "-5:3x"], False),  # an operand that is no negative number
    (["run", "1", "--fuel", "-1"], False),  # a negative fuel
    (["run", "1", "--fuel", "x"], False),  # an unreadable one
    (["run", "1", "--fuel", ""], False),
    (["run", "1", "--fuel"], False),
    (["compile", "1", "--fuel", "5"], False),  # compile takes no fuel
    (["run"], False),
    (["search", "even"], False),
    (["run", "1", "2"], False),
    (["runs", "1"], False),
    (["laws", "--count", "1"], False),
    (["run", "--fuel", "40", r"(\x. x x) (\x. x x)"], False),
    (["ispositive", "-1/1", "--fuel", "-1"], False),
    # the three shapes the benchmark sends, so that its calls never build the parser
    (["vm", r"(\x. x) 1", "--fuel", "256"], True),
    (["search", "ge:3", "-7:2", "--fuel", "1024"], True),
    (["ispositive", "-3/7", "--fuel", "200"], True),
    # the README examples, of which only `laws` is not a plain question
    *[(argv, argv[0] != "laws") for argv, _ in _readme_examples()],
]


def _parser_builds(monkeypatch, argv):
    calls = []
    build = cli._build_parser

    def spy():
        calls.append(argv)
        return build()

    monkeypatch.setattr(cli, "_build_parser", spy)
    run_main(argv)
    return len(calls)


def test_every_argv_of_the_table_is_a_corpus_line():
    # so the replay pins what main prints for each argv the table asks it
    fixed = [line["argv"] for line in cli_answers.read() if "argv" in line]
    assert [argv for argv, _ in _FORMS if argv not in fixed] == []


_PLAIN = [argv for argv, plain in _FORMS if plain]
_OTHER = [argv for argv, plain in _FORMS if not plain]


@pytest.mark.parametrize("argv", _PLAIN)
def test_the_plain_reader_reads_what_argparse_reads(argv):
    assert _agrees_with_argparse(argv) is not None


@pytest.mark.parametrize("argv", _PLAIN)
def test_a_plain_form_does_not_build_the_parser(monkeypatch, argv):
    assert _parser_builds(monkeypatch, argv) == 0


@pytest.mark.parametrize("argv", _OTHER)
def test_the_plain_reader_leaves_every_other_argv_to_argparse(argv):
    assert cli._read_plain(argv) is None


@pytest.mark.parametrize("argv", _OTHER)
def test_every_other_form_goes_through_argparse(monkeypatch, argv):
    assert _parser_builds(monkeypatch, argv) == 1
