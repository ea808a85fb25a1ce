"""The CLI answer corpus: what ``partiality`` prints for a fixed list of argv.

``tests/data/cli_answers.jsonl`` holds one JSON line per argv: the argv, its
exit code, and the SHA-256 of its stdout and of its stderr (UTF-8).
``test_cli.py`` replays every line.  This script answers the argv the
corpus holds again and writes the lines out, for a change that means to alter
what some of them print, or to compare Python versions::

    PYTHONPATH=src python tests/cli_answers.py [OUT]

It writes to the file OUT, ``-`` for stdout, or over the corpus by default.
It needs no pytest.
"""

import contextlib
import hashlib
import json
import os
import sys
from unittest import mock

from helpers import run_main

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_answers.jsonl")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def answer(argv: list) -> dict:
    """The corpus line for ``argv``, with help text wrapped at 80 columns,
    whatever the terminal."""
    with mock.patch.dict(os.environ, COLUMNS="80"):
        code, out, err = run_main(argv)
    return {"argv": argv, "code": code, "stdout": _sha(out), "stderr": _sha(err)}


def read() -> list:
    with open(CORPUS, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def main(out: str = CORPUS) -> None:
    lines = [json.dumps(answer(entry["argv"])) + "\n" for entry in read()]
    with open(out, "w", encoding="utf-8") if out != "-" else contextlib.nullcontext(sys.stdout) as f:
        f.writelines(lines)


if __name__ == "__main__":
    main(*sys.argv[1:])
