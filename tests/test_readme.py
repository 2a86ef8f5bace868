"""README.md stays true to the code: every ```python block runs as written,
each in a fresh namespace; the command reference table lists, row for row,
the options each subcommand registers; and every `pqnorm` line of its sh
blocks parses."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from pqnorm.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)
SH_LINES = [line for block in re.findall(r"^```sh\n(.*?)^```", README, flags=re.M | re.S)
            for line in block.splitlines() if line.startswith("pqnorm ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("i", range(len(BLOCKS)))
def test_readme_block_runs(i):
    exec(compile(BLOCKS[i], f"README.md block {i}", "exec"), {})


def test_flag_table_matches_parser():
    table = README.split("| command | flags |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    documented = []
    for row in table.splitlines():
        commands, flags = row.strip("|").split("|")
        documented += [(command, re.findall(r"`(--[\w-]+)`", flags))
                       for command in re.findall(r"`([\w-]+)", commands)]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    registered = [(command, [opt for action in sp._actions for opt in action.option_strings
                             if opt not in ("-h", "--help")])
                  for command, sp in sub.choices.items()]
    assert documented == registered


def test_readme_has_command_lines():
    assert len(SH_LINES) >= 10


@pytest.mark.parametrize("line", SH_LINES)
def test_command_line_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])
