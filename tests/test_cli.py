"""End-to-end command-line behavior: golden outputs and exit codes."""

import io
from itertools import permutations

from semiorders import counting
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

    def test_zero_terms_is_usage_error(self):
        code, _ = invoke(["series", "--height", "1", "--terms", "0"])
        assert code == 1


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
