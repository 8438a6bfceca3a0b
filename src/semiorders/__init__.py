"""Exact enumeration and bijection toolkit for semiorders of bounded length.

Public names and their submodules import on first use (PEP 562), so
``import semiorders`` loads no submodule.  The integer-argument gate ``_ints``
lives here because this is the one module that every caller already loads."""

from importlib import import_module
from operator import index

_NAMES = {  # submodule: the public names it defines
    "bijection": ("LevelLinkage", "arrangement_to_semiorder", "construction_stages",
                  "dyck_to_semiorder", "level_linkage", "semiorder_to_arrangement",
                  "semiorder_to_dyck", "semiorder_to_tree", "tree_to_semiorder"),
    "core": ("ComparabilityMatrix", "EmptySemiorderError", "LevelProfile", "Semiorder",
             "bad_elements", "comparability", "contraction", "expansion", "induced", "join",
             "level_profile", "split"),
    "counting": ("catalan", "count_by_good", "count_exact", "count_leq", "p_polynomial",
                 "series_exact", "series_leq"),
    "labeled": ("LabeledSemiorder", "OrderedSetPartition", "count_labeled_exact",
                "count_labeled_leq", "ordered_bell", "partition_to_labeled_semiorder",
                "labeled_semiorder_to_partition", "substitute_one_minus_exp"),
    "oracle": ("Pattern", "enumerate_posets", "enumerate_semiorders", "has_pattern", "oracle_counts"),
    "trees": ("DyckPath", "OrderedTree", "dyck_to_tree", "tree_to_dyck"),
    "trunk": ("TrunkTree", "count_trunk_trees", "dyck_to_rtlm", "narayana", "rtl_minima",
              "rtlm_to_dyck", "trunk_tree"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _NAMES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


class InvalidParametersError(ValueError):
    """Arguments outside the documented domain of a public routine."""


def _ints(message: str = "", error: type = InvalidParametersError, /, **bounds) -> list[int]:
    """{name: (value, least allowed)}'s values as ints (bools too), before any work.  A non-integer
    raises error naming all (a least may be another of them); one too small raises error with
    message.format(*the values as given), or "need name >= least and ..." if message is empty."""
    values, short = [], False
    try:
        for value, least in bounds.values():
            values.append(value := index(value))
            short |= value < least
    except TypeError:
        got = ", ".join(f"{name} = {value!r}" for name, (value, _) in bounds.items())
        raise error(f"need integers {' and '.join(bounds)}; got {got}") from None
    if short:
        need = " and ".join(f"{name} >= {least}" for name, (_, least) in bounds.items())
        raise error(message.format(*(value for value, _ in bounds.values())) or f"need {need}")
    return values
