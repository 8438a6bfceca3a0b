"""The CLI's argv reader against argparse, both built from ``cli._GRAMMAR``.

``cli._read`` takes well-formed argv without importing argparse; whatever
it declines goes to the parser.  The goldens in ``data/cli_argparse.json``
are the stdout, stderr and exit code of ``python -m semiorders.cli`` with
``COLUMNS=80`` for help, usage errors, an abbreviation and a ``--flag=value``
form, captured on Python 3.11 from the parser as it was written before the
grammar table.
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from semiorders import cli, counting

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = json.loads((ROOT / "tests" / "data" / "cli_argparse.json").read_text())
PARSER = cli._build_parser()


def argparse_vars(argv):
    """vars() of argparse's namespace, or None where it exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


def golden_id(case):
    argv = " ".join(case["argv"])
    return argv if len(argv) < 60 else argv[:40] + "..."


@pytest.mark.parametrize("case", GOLDENS["cases"], ids=golden_id)
def test_argparse_goldens(case):
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "semiorders.cli", *case["argv"]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == case["code"]
    # argparse's wording and layout vary between Python versions
    if f"{sys.version_info[0]}.{sys.version_info[1]}" == GOLDENS["python"]:
        assert (proc.stdout, proc.stderr) == (case["stdout"], case["stderr"])
    elif case["code"] == 0 and "--help" not in case["argv"]:
        assert proc.stdout == case["stdout"]


def test_goldens_cover_every_help_and_take_argparse():
    argvs = [case["argv"] for case in GOLDENS["cases"]]
    assert [["--help"]] + [[name, "--help"] for name in cli._GRAMMAR] == argvs[:7]
    assert all(cli._read(argv) is None for argv in argvs)


def test_count_help_states_the_route_table():
    # the help restates counting._ROUTES in prose: the --check reference most routes share, each
    # route with another one, and the routes that report only the at-most count
    routes = counting._ROUTES
    common = Counter(route.check for route in routes.values()).most_common(1)[0][0]
    others = "".join(f" ({route.check} for --mode {name})" for name, route in routes.items()
                     if route.check != common)
    at_most = ", ".join(repr(name) for name, route in routes.items() if route.at_most)
    options = cli._GRAMMAR["count"][2]
    assert options["--check"]["help"] == f"cross-check against the {common} route{others}"
    assert options["--mode"]["help"] == (
        f"unlabeled route; {at_most} always reports the at-most count")


def perfbench_cli_argv():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    rounds = (inputs.cli_round(seed, index) for seed in (1, 2, 3) for index in range(8))
    return [list(op.args) for ops in rounds for op in ops]


def test_every_perfbench_cli_argv_takes_the_reader():
    argvs = perfbench_cli_argv()
    assert len(argvs) == 408
    for argv in argvs:
        args = cli._read(argv)
        assert args is not None, argv
        assert vars(args) == argparse_vars(argv), argv


@pytest.mark.parametrize("argv, expected", [
    (["count", "--n", "5", "--height", "2"],
     {"command": "count", "n": 5, "height": 2, "at_most": False, "labeled": False, "mode": None,
      "check": False}),
    (["enumerate", "--n", "007"],
     {"command": "enumerate", "n": 7, "max_height": None, "format": "vector", "force": False}),
    (["map", "--to", "dyck", "--input", "", "--from", "vector"],
     {"command": "map", "source": "vector", "target": "dyck", "input": ""}),
    (["verify"], {"command": "verify", "suite": "all", "max_n": 8}),
])
def test_defaults_and_renames(argv, expected):
    assert vars(cli._read(argv)) == expected == argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["count", "-h"], ["cou", "--n", "5", "--height", "2"],
    ["count", "--n", "5", "--hei", "2"], ["count", "--n=5", "--height", "2"],
    ["count", "--n", "5", "--n", "6", "--height", "2"], ["count", "--n", "5"],
    ["count", "--n", "-1", "--height", "2"], ["count", "--n", "1_0", "--height", "2"],
    ["count", "--n", "٣", "--height", "2"], ["count", "--n", "1" * 5000, "--height", "2"],
    ["count", "--n", "5", "--height", "2", "--labeled", "x"], ["count", "--n", "5", "--height"],
    ["verify", "--suite", "fast"], ["map", "--from", "tree", "--to", "dyck", "--input", "-"],
    ["verify", "--"],
])
def test_declined(argv):
    assert cli._read(argv) is None


# every token kind the reader must judge: names, flags in full, abbreviated and
# with '=', separators, help, and values that int() or argparse treat specially
FLAGS = sorted({flag for _, _, options in cli._GRAMMAR.values() for flag in options})
TOKENS = (
    list(cli._GRAMMAR) + FLAGS
    + ["--he", "--hei", "--at", "--max", "--fr", "--cou", "--su", "--form", "--n=5", "--height=2",
       "--mode=trig", "--input=x", "--max-n=3", "--", "-h", "--help", "-n"]
    + ["0", "5", "12", "007", "-1", "1_0", "٣", "", " 3", "+3", "x", "((()))", "UUDD", "3,2,0"]
    + list(cli._METHODS) + list(cli._SUITES) + ["vector", "tree", "dyck", "fast"]
)
ODD_VALUES = ["007", "-1", "1_0", "٣", "", " 3", "+3", "x", "-", "--n", "fast"]


@st.composite
def near_well_formed(draw):
    """A subcommand and its required flags plus some others, in any order,
    with values that the reader takes three times in four."""
    name = draw(st.sampled_from(sorted(cli._GRAMMAR)))
    options = cli._GRAMMAR[name][2]
    flags = draw(st.permutations([flag for flag, spec in options.items()
                                  if spec.get("required") or draw(st.booleans())]))
    argv = [name]
    for flag in flags:
        argv.append(flag)
        spec = options[flag]
        if "action" in spec:
            continue
        if draw(st.integers(0, 3)) == 0:
            argv.append(draw(st.sampled_from(ODD_VALUES)))
        elif "choices" in spec:
            argv.append(draw(st.sampled_from(spec["choices"])))
        elif "type" in spec:
            argv.append(str(draw(st.integers(0, 99))))
        else:
            argv.append(draw(st.sampled_from(["", "x", "3,2,0"])))
    return argv


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    near_well_formed(),
    st.lists(st.sampled_from(TOKENS), max_size=8),
    st.tuples(st.sampled_from(sorted(cli._GRAMMAR)), st.lists(st.sampled_from(TOKENS), max_size=8))
    .map(lambda t: [t[0], *t[1]]),
))
def test_reader_agrees_with_argparse(argv):
    args = cli._read(argv)
    expected = argparse_vars(argv)
    event("read" if args else "argparse parsed" if expected else "argparse exited")
    if args is not None:
        assert vars(args) == expected
    if expected is None:
        assert args is None
