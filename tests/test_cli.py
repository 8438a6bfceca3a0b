"""End-to-end command-line behavior: golden outputs and exit codes."""

import io
import os
import subprocess
import sys
import time
from itertools import permutations
from pathlib import Path

import pytest

from semiorders import counting, labeled
from semiorders.cli import run
from semiorders.core import Semiorder
from semiorders.trunk import trunk_tree, upper_count


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


class TestCount:
    def test_closed_height_one(self):
        assert invoke(["count", "--n", "10", "--height", "1", "--mode", "closed"]) == (0, "512\n")

    def test_exact_default(self):
        assert invoke(["count", "--n", "5", "--height", "2"]) == (0, "18\n")

    def test_at_most(self):
        assert invoke(["count", "--n", "5", "--height", "2", "--at-most"]) == (0, "34\n")

    def test_labeled(self):
        code, text = invoke(["count", "--n", "4", "--height", "1", "--labeled", "--at-most"])
        assert (code, text) == (0, "75\n")

    def test_modes_with_check(self):
        for mode in ("convolution", "alternating", "series", "trig"):
            code, text = invoke(
                ["count", "--n", "12", "--height", "4", "--mode", mode, "--check"]
            )
            assert code == 0
            assert text == "59224\n"

    def test_series_check_uses_another_route(self, monkeypatch, capsys):
        monkeypatch.setattr(counting, "_leq_alternating", lambda n, h: 0)
        code, text = invoke(["count", "--n", "12", "--height", "4", "--mode", "series", "--check"])
        assert (code, text) == (2, "")
        assert "alternating" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", counting.METHODS)
    def test_no_route_checks_itself(self, monkeypatch, capsys, mode):
        argv = ["count", "--n", "12", "--height", "3" if mode == "closed" else "4", "--mode", mode]
        assert invoke(argv + ["--check"]) == invoke(argv)
        assert invoke(argv)[0] == 0
        reference = counting._ROUTES[mode].check
        broken = counting._ROUTES[reference]._replace(leq=lambda n, h: -1, exact=lambda n, h: -1)
        monkeypatch.setitem(counting._ROUTES, reference, broken)
        capsys.readouterr()
        assert invoke(argv + ["--check"]) == (2, "")
        assert capsys.readouterr().err == f"cross-check failed: {invoke(argv)[1].strip()} != {reference} -1\n"

    def test_labeled_rejects_mode(self, capsys):
        code, text = invoke(["count", "--n", "4", "--height", "1", "--labeled", "--mode", "trig"])
        assert (code, text) == (1, "")
        assert "--mode" in capsys.readouterr().err

    def test_labeled_rejects_check(self, capsys):
        code, text = invoke(["count", "--n", "4", "--height", "1", "--labeled", "--check"])
        assert (code, text) == (1, "")
        assert "--check" in capsys.readouterr().err

    def test_closed_unavailable_is_usage_error(self):
        code, _ = invoke(["count", "--n", "5", "--height", "2", "--mode", "closed"])
        assert code == 1


class TestEnumerate:
    def test_vectors(self):
        code, text = invoke(["enumerate", "--n", "3"])
        assert code == 0
        assert text == "0,0,0\n1,0,0\n1,1,0\n2,0,0\n2,1,0\n"

    def test_max_height_filter(self):
        code, text = invoke(["enumerate", "--n", "3", "--max-height", "1"])
        assert code == 0
        assert text == "0,0,0\n1,0,0\n1,1,0\n2,0,0\n"

    def test_tree_format(self):
        code, text = invoke(["enumerate", "--n", "2", "--format", "tree"])
        assert code == 0
        assert text == "(()())\n((()))\n"

    def test_cap_without_force(self):
        code, _ = invoke(["enumerate", "--n", "15"])
        assert code == 1

    def test_negative_n_is_usage_error(self, capsys):
        assert invoke(["enumerate", "--n", "-1"]) == (1, "")
        assert capsys.readouterr().err == "semiorders: error: need n >= 0; got -1\n"

    def test_negative_max_height_is_usage_error(self, capsys):
        assert invoke(["enumerate", "--n", "3", "--max-height", "-1"]) == (1, "")
        assert capsys.readouterr().err == "semiorders: error: need --max-height >= 0\n"

    def test_deterministic(self):
        first = invoke(["enumerate", "--n", "6", "--format", "dyck"])
        second = invoke(["enumerate", "--n", "6", "--format", "dyck"])
        assert first == second


class TestMap:
    def test_tree_to_vector(self):
        code, text = invoke(["map", "--from", "tree", "--to", "vector", "--input", "((())(()()))"])
        assert (code, text) == (0, "3,2,0,0,0\n")

    def test_vector_to_tree(self):
        code, text = invoke(
            ["map", "--from", "vector", "--to", "tree", "--input", "7,6,4,2,2,1,1,1,0"]
        )
        assert (code, text) == (0, "(((()()))(()((()))))\n")

    def test_dyck_to_vector(self):
        code, text = invoke(["map", "--from", "dyck", "--to", "vector", "--input", "UUDDUUDUDD"])
        assert (code, text) == (0, "3,2,0,0,0\n")

    def test_empty_vector_to_tree(self):
        code, text = invoke(["map", "--from", "vector", "--to", "tree", "--input", ""])
        assert (code, text) == (0, "()\n")

    def test_deep_inputs_every_direction(self):
        depth = 5000
        forms = {
            "vector": ",".join(str(r) for r in range(depth - 1, -1, -1)),
            "tree": "(" * (depth + 1) + ")" * (depth + 1),
            "dyck": "U" * depth + "D" * depth,
        }
        for source, text in forms.items():
            for target, expected in forms.items():
                argv = ["map", "--from", source, "--to", target, "--input", text]
                assert invoke(argv) == (0, expected + "\n"), (source, target)

    def test_invalid_vector_is_usage_error(self):
        code, _ = invoke(["map", "--from", "vector", "--to", "tree", "--input", "2,2,0"])
        assert code == 1


class TestSeries:
    def test_exact(self):
        code, text = invoke(["series", "--height", "2", "--terms", "7"])
        assert (code, text) == (0, "0,0,0,1,5,18,57\n")

    def test_at_most(self):
        code, text = invoke(["series", "--height", "3", "--terms", "7", "--at-most"])
        assert (code, text) == (0, "1,1,2,5,14,41,122\n")

    def test_labeled(self):
        code, text = invoke(["series", "--height", "1", "--terms", "6", "--at-most", "--labeled"])
        assert (code, text) == (0, "1,1,3,13,75,541\n")

    @pytest.mark.parametrize("height, terms", [(0, 1), (3, 40), (8, 200), (5000, 6)])
    def test_streamed_output_equals_the_joined_series(self, height, terms):
        # without --labeled each coefficient is written as the stepper yields it
        for flag, series in (([], counting.series_exact), (["--at-most"], counting.series_leq)):
            code, text = invoke(["series", "--height", str(height), "--terms", str(terms), *flag])
            assert (code, text) == (0, ",".join(str(c) for c in series(height, terms - 1)) + "\n")

    @pytest.mark.parametrize("height, terms", [(0, 1), (1, 13), (3, 40), (8, 120), (5000, 6)])
    def test_streamed_labeled_output_equals_the_joined_transform(self, height, terms):
        # with --labeled each entry of the transform is written once its coefficient arrives
        for flag, series in (([], counting.series_exact), (["--at-most"], counting.series_leq)):
            code, text = invoke(["series", "--height", str(height), "--terms", str(terms), "--labeled", *flag])
            expected = labeled.substitute_one_minus_exp(series(height, terms - 1))
            assert (code, text) == (0, ",".join(str(c) for c in expected) + "\n")

    def test_zero_terms_is_usage_error(self, capsys):
        code, _ = invoke(["series", "--height", "1", "--terms", "0"])
        assert code == 1
        assert capsys.readouterr().err == "semiorders: error: need --terms >= 1\n"


class TestTrunkTrees:
    def test_count_only(self):
        assert invoke(["trunk-trees", "--rho", "2,1,0,0", "--count-only"]) == (0, "2\n")

    def test_listing(self):
        code, text = invoke(["trunk-trees", "--rho", "2,1,0,0"])
        assert (code, text) == (0, "0,2\n1,1\n")

    def test_flagged_input_still_counts(self, capsys):
        code, text = invoke(["trunk-trees", "--rho", "0,0,0", "--count-only"])
        assert (code, text) == (0, "1\n")
        assert "distinct" in capsys.readouterr().err

    def test_listing_notes_repeated_uppers_once(self, capsys):
        assert invoke(["trunk-trees", "--rho", "2,2,0,0"]) == (0, "0,2\n")
        assert capsys.readouterr().err == (
            "note: upper entries (2, 2) are not pairwise distinct; the count may fall short of C_2 = 2\n"
        )

    def test_listing_matches_permutation_definition(self):
        for rho in ("7,5,4,2,1,0,0,0,0,0,0,0", "3,3,1,0,0,0", "4,2,2,1,0,0,0,0", "0,0,0"):
            s = Semiorder.from_text(rho)
            m = upper_count(s)
            shapes = sorted({trunk_tree(s, sigma).leaf_counts for sigma in permutations(range(1, m + 1))})
            expected = "".join(",".join(str(c) for c in shape) + "\n" for shape in shapes)
            assert invoke(["trunk-trees", "--rho", rho]) == (0, expected)

    def test_too_long_is_usage_error(self):
        code, _ = invoke(["trunk-trees", "--rho", "2,1,0", "--count-only"])
        assert code == 1


class TestVerify:
    def test_oracle_suite(self):
        code, text = invoke(["verify", "--suite", "oracle", "--max-n", "3"])
        assert code == 0
        lines = text.splitlines()
        assert "n=3 h=1 oracle=3 formula=3 OK" in lines
        assert all(line.endswith(" OK") for line in lines)

    def test_all_suites_small(self):
        code, text = invoke(["verify", "--suite", "all", "--max-n", "3"])
        assert code == 0
        assert all(line.endswith(" OK") for line in text.splitlines())

    def test_recurrences_cap_max_n_at_sixty(self):
        start = time.perf_counter()
        code, text = invoke(["verify", "--suite", "recurrences", "--max-n", "10000"])
        assert time.perf_counter() - start < 20.0
        lines = text.splitlines()
        assert code == 0 and len(lines) == 12
        assert all(line.endswith(" n<=60 OK") for line in lines)

    def test_zero_max_n_is_usage_error(self, capsys):
        code, text = invoke(["verify", "--suite", "bijection", "--max-n", "0"])
        assert (code, text) == (1, "")
        assert "max_n" in capsys.readouterr().err


class TestUsageErrors:
    def test_bad_int(self):
        code, _ = invoke(["count", "--n", "nope", "--height", "1"])
        assert code == 1

    def test_unknown_subcommand(self):
        code, _ = invoke(["transmogrify"])
        assert code == 1

    def test_missing_required(self):
        code, _ = invoke(["count", "--n", "3"])
        assert code == 1


class TestHugeCounts:
    """Counts past CPython's default 4300-digit int->str guard still print,
    and the caller's own guard is back in place when ``run`` returns."""

    @pytest.fixture
    def caller_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        yield 5000
        sys.set_int_max_str_digits(limit)

    def test_count_matches_closed_form(self, caller_limit):
        n = 20000
        for mode in ("series", "closed"):
            code, text = invoke(
                ["count", "--n", str(n), "--height", "3", "--mode", mode, "--at-most"]
            )
            assert sys.get_int_max_str_digits() == caller_limit
            assert code == 0
            sys.set_int_max_str_digits(0)
            assert text == f"{(3 ** (n - 1) + 1) // 2}\n"
            sys.set_int_max_str_digits(caller_limit)

    def test_exact_count_prints(self, caller_limit):
        code, text = invoke(["count", "--n", "20000", "--height", "3", "--mode", "series"])
        assert sys.get_int_max_str_digits() == caller_limit
        assert code == 0 and len(text) > 9000

    def test_series_prints(self, caller_limit):
        terms = 14300  # 2^14298 has 4305 digits
        code, text = invoke(["series", "--height", "1", "--terms", str(terms), "--at-most"])
        assert sys.get_int_max_str_digits() == caller_limit
        assert code == 0
        coefficients = text.rstrip("\n").split(",")
        assert len(coefficients) == terms
        assert coefficients[:4] == ["1", "1", "2", "4"]
        sys.set_int_max_str_digits(0)
        assert coefficients[-1] == str(2 ** (terms - 2))

    def test_limit_restored_after_usage_error(self, caller_limit):
        assert invoke(["series", "--height", "1", "--terms", "0"]) == (1, "")
        assert sys.get_int_max_str_digits() == caller_limit


class TestHugeHeight:
    """A length bound far past n costs no more than h = n - 1 does: every
    n-element semiorder has length at most n - 1."""

    @pytest.mark.parametrize("argv, expected", [
        (["series", "--height", "5000", "--terms", "3"], "0,0,0\n"),
        (["count", "--n", "5", "--height", "5000", "--labeled"], "0\n"),
        (["count", "--n", "5", "--height", "3000000"], "0\n"),
        (["count", "--n", "5", "--height", "200000", "--mode", "trig"], "0\n"),
        (["count", "--n", "5", "--height", "3000000", "--at-most"], "42\n"),
        (["count", "--n", "5", "--height", "3000000", "--at-most", "--labeled"], "2371\n"),
        (["series", "--height", "5000", "--terms", "6", "--at-most"], "1,1,2,5,14,42\n"),
    ])
    def test_answers_within_budget(self, argv, expected):
        start = time.perf_counter()
        assert invoke(argv) == (0, expected)
        assert time.perf_counter() - start < 2.0


def peak_of(argv):
    """Run the CLI on ``argv`` and return (process, peak RSS in kB).  A small
    wrapper starts the CLI and reports its peak: a child forked straight from
    this large test process would count the pages it shared at the fork."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    wrapper = (
        "import resource, subprocess, sys\n"
        "code = subprocess.run(sys.argv[1:]).returncode\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, sys.executable, "-m", "semiorders.cli", *argv],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    return proc, int(proc.stderr)  # ru_maxrss is in kB on Linux


def test_series_count_peaks_in_bounded_memory():
    # the series route holds the denominator's window, not every coefficient
    # (this command peaked at 272 MB when it kept the whole series)
    n = 50000
    proc, peak_kb = peak_of(["count", "--n", str(n), "--height", "3", "--at-most", "--mode", "series"])
    assert peak_kb < 50 * 1024, f"peak {peak_kb / 1024:.0f} MB"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert int(proc.stdout) == (3 ** (n - 1) + 1) // 2
    finally:
        sys.set_int_max_str_digits(limit)


def test_labeled_count_peaks_in_bounded_memory():
    # the count packs the coefficients of F(1 + y) in one int, not the whole
    # Stirling table (this command peaked at 211 MB with the table)
    n, h = 1000, 10
    proc, peak_kb = peak_of(["count", "--n", str(n), "--height", str(h), "--labeled", "--at-most"])
    assert peak_kb < 50 * 1024, f"peak {peak_kb / 1024:.0f} MB"
    prime = (1 << 61) - 1  # checked modulo a prime, with S(n, k) mod p built row by row
    stirling = [1]
    for m in range(1, n + 1):
        stirling = [0] + [(k * stirling[k] + stirling[k - 1]) % prime for k in range(1, m)] + [1]
    expected = 0
    factorial = 1
    for k, f in enumerate(counting.series_leq(h, n)):
        factorial = factorial * max(k, 1) % prime
        expected += (-1) ** (n - k) * f * factorial * stirling[k]
    assert int(proc.stdout) % prime == expected % prime  # 3,078 digits: under str()'s guard


def test_closed_output_pipe_exits_one_without_traceback():
    # as in `semiorders enumerate --n 12 | head -1`: the reader goes after one line
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    with subprocess.Popen(
        [sys.executable, "-m", "semiorders.cli", "enumerate", "--n", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline() == b"0,0,0,0,0,0,0,0,0,0,0,0\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert b"Traceback" not in err
