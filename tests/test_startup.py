"""Start-up guard: what a fresh interpreter loads for ``import semiorders``
and for each CLI subcommand, and how the package resolves its names."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

# the package's public API, pinned so that a change to it is deliberate
PUBLIC = [
    "ComparabilityMatrix", "DyckPath", "EmptySemiorderError", "LabeledSemiorder", "LevelLinkage",
    "LevelProfile", "OrderedSetPartition", "OrderedTree", "Pattern", "Semiorder", "TrunkTree",
    "arrangement_to_semiorder", "bad_elements", "catalan", "comparability", "construction_stages",
    "contraction", "count_by_good", "count_exact", "count_labeled_exact", "count_labeled_leq",
    "count_leq", "count_trunk_trees", "dyck_to_rtlm", "dyck_to_semiorder", "dyck_to_tree",
    "enumerate_posets", "enumerate_semiorders", "expansion", "has_pattern", "induced", "join",
    "labeled_semiorder_to_partition", "level_linkage", "level_profile", "narayana",
    "oracle_counts", "ordered_bell", "p_polynomial", "partition_to_labeled_semiorder",
    "rtl_minima", "rtlm_to_dyck", "semiorder_to_arrangement", "semiorder_to_dyck",
    "semiorder_to_tree", "series_exact", "series_leq", "split", "substitute_one_minus_exp",
    "tree_to_dyck", "tree_to_semiorder", "trunk_tree",
]

SUBCOMMANDS = {
    "count": ["count", "--n", "12", "--height", "3"],
    "map": ["map", "--from", "tree", "--to", "dyck", "--input", "((())(()()))"],
    "enumerate": ["enumerate", "--n", "4", "--format", "tree"],
    "series": ["series", "--height", "2", "--terms", "6", "--labeled"],
    "trunk-trees": ["trunk-trees", "--rho", "3,2,1,0,0,0"],
    "verify": ["verify", "--suite", "all", "--max-n", "3"],
}


def loaded_after(code: str) -> set[str]:
    """Module names loaded once ``code`` has run in a fresh interpreter that
    skips ``site`` and writes no bytecode, so only the package and the
    standard library it pulls in are counted."""
    probe = (
        f"import sys; sys.path.insert(0, {SRC!r})\n{code}\n"
        "import json; print(json.dumps(sorted(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", probe],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def after_cli(argv) -> set[str]:
    return loaded_after(
        f"import io\nfrom semiorders.cli import run\nassert run({argv!r}, io.StringIO()) == 0"
    )


def package_modules(modules) -> set[str]:
    return {name for name in modules if name.startswith("semiorders.")}


def test_bare_import_loads_no_submodule():
    modules = loaded_after("import semiorders")
    assert package_modules(modules) == set()
    assert "dataclasses" not in modules
    assert "decimal" not in modules


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_no_subcommand_loads_dataclasses(command):
    assert "dataclasses" not in after_cli(SUBCOMMANDS[command])


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_well_formed_argv_loads_no_argparse(command):
    assert not {"argparse", "gettext", "locale"} & after_cli(SUBCOMMANDS[command])


def test_help_loads_argparse():
    assert "argparse" in after_cli(["--help"])


def test_count_loads_only_counting():
    modules = after_cli(SUBCOMMANDS["count"])
    assert package_modules(modules) == {"semiorders.cli", "semiorders.counting"}
    assert "decimal" not in modules
    assert "decimal" in after_cli(["count", "--n", "12", "--height", "3", "--mode", "trig"])


@pytest.mark.parametrize("command", ["map", "enumerate", "trunk-trees"])
def test_counting_and_verify_load_only_where_they_run(command):
    assert not {"semiorders.counting", "semiorders.verify"} & after_cli(SUBCOMMANDS[command])


def test_parser_choices_are_the_routes_and_suites():
    from semiorders import cli, counting, verify

    assert cli._METHODS == counting.METHODS
    assert cli._SUITES == verify.SUITES


def test_map_loads_no_oracle_labeled_or_trunk():
    modules = after_cli(SUBCOMMANDS["map"])
    assert {"semiorders.core", "semiorders.trees", "semiorders.bijection"} <= modules
    assert not {"semiorders.oracle", "semiorders.labeled", "semiorders.trunk"} & modules


def test_public_names_resolve_lazily():
    code = (
        "import semiorders\n"
        "names = {n: getattr(semiorders, n) for n in semiorders.__all__}\n"
        "from semiorders import core, counting, trees\n"
        "assert names['Semiorder'] is core.Semiorder and names['catalan'] is counting.catalan\n"
        "assert names['DyckPath'] is trees.DyckPath\n"
        "ns = {}\n"
        "exec('from semiorders import *', ns)\n"
        "assert all(ns[n] is names[n] for n in semiorders.__all__)\n"
        "assert semiorders.counting.catalan(10) == 16796"
    )
    loaded_after(code)


def test_all_is_the_public_api():
    import semiorders

    assert semiorders.__all__ == PUBLIC
    assert all(getattr(semiorders, name) is not None for name in PUBLIC)


def test_submodules_resolve_after_bare_import():
    assert loaded_after("import semiorders\nassert semiorders.trunk.narayana(4, 2) == 6")


def test_unknown_attribute_raises():
    import semiorders

    with pytest.raises(AttributeError, match="no_such_name"):
        semiorders.no_such_name
    with pytest.raises(ImportError):
        exec("from semiorders import no_such_name", {})
