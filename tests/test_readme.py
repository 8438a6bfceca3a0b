"""README's examples run, so their printed outputs cannot drift: the library
example as a doctest, the command-line examples through ``cli.run``."""

import doctest
import io
import re
import shlex
from itertools import takewhile
from pathlib import Path

import pytest

from semiorders import counting, verify
from semiorders.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"
COMMAND_LINE = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]


def test_library_example():
    section = README.read_text().split("## Library example", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    test = doctest.DocTestParser().get_doctest(example, {}, "README library example", str(README), 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert attempted and not failed


def cli_examples():
    """One param per ``$ semiorders ...`` line: its argv, the lines printed under
    it, and whether a ``...`` cuts them short."""
    block = re.search(r"```sh\n(\$ semiorders .*?)```", COMMAND_LINE, re.DOTALL).group(1)
    examples = []
    for chunk in block.split("$ semiorders ")[1:]:
        command, *printed = chunk.splitlines()
        shown = list(takewhile(lambda line: line != "...", printed))
        examples.append(pytest.param(shlex.split(command), shown, shown != printed, id=command))
    return examples


def test_four_command_line_examples():
    assert len(cli_examples()) == 4


@pytest.mark.parametrize("argv, shown, cut", cli_examples())
def test_command_line_example(argv, shown, cut):
    out = io.StringIO()
    assert run(argv, out) == 0
    printed = out.getvalue().splitlines()
    assert shown and (printed[: len(shown)] if cut else printed) == shown


def test_usage_lists_the_methods_and_suites():
    usage = re.search(r"```text\n(.*?)```", COMMAND_LINE, re.DOTALL).group(1)
    assert tuple(re.search(r"--mode ([\w|]+)", usage).group(1).split("|")) == counting.METHODS
    assert tuple(re.search(r"--suite ([\w|]+)", usage).group(1).split("|")) == verify.SUITES
