"""The CLI answer corpus: what ``partiality`` prints for every argv the tests pin.

``tests/data/cli_answers.jsonl`` holds one JSON line per argv: the argv, a
deep recipe or a draw number; its exit code; and the SHA-256 of its stdout
and of its stderr (UTF-8).  It holds 116 fixed argv, then 20 deep ones, each
with its program as a recipe ``{head, n, leaf, tail}`` that stands for
``head * n + leaf + tail * n``, then the ``DRAWS`` seeded ones, draw ``i``
being ``draw(i)``.  So a line stays short when its argv is a 600 KB program
or a 4 400-digit operand.  ``draw`` is the one generator of every CLI argv
the tests use.  ``test_cli.py`` replays every line, asking each argv twice.
This script answers the argv the corpus holds again and writes the lines
out, for a change that means to alter what some of them print, to change
the draw, or to compare Python versions::

    PYTHONPATH=src python tests/cli_answers.py [OUT]

It writes to the file OUT, ``-`` for stdout, or over the corpus by default.
It needs no pytest and no hypothesis.
"""

import contextlib
import hashlib
import json
import os
import random
import re
import sys
from unittest import mock

from partiality import lang
from helpers import run_main

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_answers.jsonl")
DRAWS = 500
NINES = "9" * 4400  # past the 4 300 digits Python's int-text conversion allows
_DEEP = 10**4
_PARTS = ["", "0", "3", "-4", NINES, "-" + NINES, "x", "0.5", "1e3"]
# no program `.` or `..`, so no `.` here or among the soup tokens: each names a directory, which `run`
# tries to read as the program's file, so its answer would pin this OS's errno text
_HOSTILE = [
    r"(\x. x) 5", r"(\x. x x) (\x. x x)", r"(\f. f f) (\f. suc (f f))",
    r"(\x. (\y. 3) (x (x x))) (\x. 0 (x x 3))", "1 2", r"\x. x", "suc " * 60 + "0",
    "(1", "", " ", "#0", "\\", "suc", ")(", "é", "\x00", "-",
]

# each choice a draw makes, by name, with the options it picks from; an option
# listed more than once is picked more often
CHOICES = {
    "command": ["run", "vm", "compile", "ispositive", "search", "laws", "junk"],  # junk: 0-5 junk tokens
    "program": ["term"] * 4 + ["hostile"] * 2 + ["soup"],  # a soup is 0-24 soup tokens
    "mutation": ["none", "truncate", "stray", "huge"] * 3 + ["deep"],  # a deep argv takes up to 50 ms
    "stray": ["(", ")", "\\", ".", "x", "#", "-", "é", "\x00", " ", "9"],
    "hostile": _HOSTILE,
    "soup token": ["\\", "x", "y", "(", ")", "suc", "0", "7", " ", "#", "-"],
    "predicate": ["even", "odd", "gt", "ge", "lt", "le", "eq", "prime", ""],
    "part": _PARTS,
    "suffix": [None] * len(_PARTS) + _PARTS,  # a predicate's argument or a stream's step, absent half the time
    "denominator": [None] * 6 + ["0", "1", "7", NINES, "-3", ""],
    "seed": ["0", "-7", "10" * 12, "x"],
    "count": ["0", "1", "2", "-1", "x"],
    "junk token": ["run", "vm", "laws", "-h", "--help", "--", "--fuel", "--bogus", "-x", "0", "", "é"],
    "fuel form": [None] * 4 + ["--fuel F"] * 4 + ["--fuel=F", "--fuel"],
    # fuel of at most 10**4 keeps every search far from the depth `lfp` reaches (ROADMAP item 3)
    "fuel": ["-1", "-0", "0", "1", "+3", "17", "40", "300", str(10**4), "1_0", "0x10", "١٢", "x", "1.5", "", "1e3"],
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _mutate(text: str, how: str, at: int, char: str) -> str:
    cut = at % (len(text) + 1)
    if how == "truncate":
        return text[:cut]
    if how == "stray":
        return text[:cut] + char + text[cut:]
    if how == "huge":  # every literal past the 4 300 digits of int-text conversion
        return re.sub(r"\d+", NINES, text) if re.search(r"\d", text) else f"suc {NINES}"
    if how == "deep":
        return "suc (" * _DEEP + text + ")" * _DEEP if at % 2 else "(" * _DEEP + text + " 0)" * _DEEP
    return text


def draw(i: int, seen: set | None = None) -> list:
    """Generated argv number ``i``, drawn from ``random.Random(i)``; each
    choice it makes is added to ``seen`` as ``(name, option)``."""
    rng = random.Random(i)

    def pick(name):
        option = rng.choice(CHOICES[name])
        if seen is not None:
            seen.add((name, option))
        return option

    def joined(head, sep, tail):
        return head if tail is None else f"{head}{sep}{tail}"

    command = pick("command")
    if command == "junk":
        return [pick("junk token") for _ in range(rng.randrange(6))]
    if command == "laws":
        return ["laws", "--seed", pick("seed"), "--count", pick("count")]
    if command in ("run", "vm", "compile"):
        source = pick("program")
        if source == "term":
            text = lang.show(lang.gen_term(rng.randrange(2**16), rng.randrange(11)))
            how = pick("mutation")
            text = _mutate(text, how, rng.randrange(2**16), pick("stray") if how == "stray" else "")
        elif source == "hostile":
            text = pick("hostile")
        else:
            text = "".join(pick("soup token") for _ in range(rng.randrange(25)))
        operands = [text]
    elif command == "ispositive":
        operands = [joined(pick("part"), "/", pick("denominator"))]
    else:
        operands = [joined(pick("predicate"), ":", pick("suffix")), joined(pick("part"), ":", pick("suffix"))]
    form = pick("fuel form")  # compile takes no fuel, so each form there is a usage error
    if form == "--fuel F":
        return [command, *operands, "--fuel", pick("fuel")]
    if form == "--fuel=F":
        return [command, *operands, "--fuel=" + pick("fuel")]
    return [command, *operands, *([] if form is None else [form])]


def _expand(part):
    # an argv item, or the recipe of a deep program: head * n + leaf + tail * n
    return part if isinstance(part, str) else part["head"] * part["n"] + part["leaf"] + part["tail"] * part["n"]


def argv(line: dict) -> list:
    if "draw" in line:
        return draw(line["draw"])
    if "deep" in line:
        return [_expand(part) for part in line["deep"]]
    return line["argv"]


def answer(line: dict) -> dict:
    """The corpus line for the argv, deep recipe or draw of ``line``, with
    help text wrapped at 80 columns, whatever the terminal."""
    key = next(key for key in ("argv", "deep", "draw") if key in line)
    with mock.patch.dict(os.environ, COLUMNS="80"):
        code, out, err = run_main(argv(line))
    return {key: line[key], "code": code, "stdout": sha(out), "stderr": sha(err)}


def read() -> list:
    with open(CORPUS, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def main(out: str = CORPUS) -> None:
    fixed = [{key: line[key]} for line in read() for key in ("argv", "deep") if key in line]
    keys = fixed + [{"draw": i} for i in range(DRAWS)]
    lines = [json.dumps(answer(key)) + "\n" for key in keys]
    with open(out, "w", encoding="utf-8") if out != "-" else contextlib.nullcontext(sys.stdout) as f:
        f.writelines(lines)


if __name__ == "__main__":
    main(*sys.argv[1:])
