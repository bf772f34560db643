"""The README's examples run as written: the library block, and each CLI line."""

import re
import shlex
from pathlib import Path

from qchar.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block after the heading."""
    found = re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, README.index(heading))
    return found.group(1)


def test_library_example_runs():
    exec(compile(fenced_block("## Library", "python"), "README.md", "exec"), {})


def test_cli_examples_exit_zero_and_print_what_they_claim(capsys):
    lines = fenced_block("## CLI", "sh").splitlines()
    claims = 0
    for line, after in zip(lines, lines[1:] + [""]):
        if not line.startswith("qchar "):
            continue
        assert main(shlex.split(line)[1:]) == 0, line
        out = capsys.readouterr().out
        if after.startswith("# -> "):
            assert out == after[len("# -> ") :] + "\n", line
            claims += 1
    assert claims
