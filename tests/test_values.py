"""Value semantics of the package's record classes: each is immutable,
compares and hashes by its own fields within its own class, prints as
``Name(field=value, ...)``, and survives copy and pickle."""

import copy
import pickle
import pkgutil
from importlib import import_module

import pytest

import semiorders
from semiorders.bijection import level_linkage
from semiorders.core import ComparabilityMatrix, Frozen, LevelProfile, Semiorder, comparability, level_profile
from semiorders.labeled import LabeledSemiorder, OrderedSetPartition
from semiorders.oracle import GenericPoset
from semiorders.trees import DyckPath, OrderedTree
from semiorders.trunk import TrunkTree

ROWS = ((False, True), (False, False))

# (build a fresh instance, build one of the same class differing in every field, the repr)
CASES = {
    "Semiorder": (
        lambda: Semiorder((1, 0)), lambda: Semiorder((0, 0)), "Semiorder(rho=(1, 0))",
    ),
    "ComparabilityMatrix": (
        lambda: comparability(Semiorder((1, 0))),
        lambda: comparability(Semiorder((0, 0))),
        "ComparabilityMatrix(rows=((False, True), (False, False)))",
    ),
    "LevelProfile": (
        lambda: level_profile(Semiorder((1, 0))),
        lambda: level_profile(Semiorder((0, 0))),
        "LevelProfile(level_of=(1, 2), sizes=(1, 1))",
    ),
    "LevelLinkage": (
        lambda: level_linkage(OrderedTree.from_text("(()(()))")),
        lambda: level_linkage(OrderedTree.from_text("((()))")),
        "LevelLinkage(sizes=(2, 1), child_counts=((2,), (0, 1)), suffix_sums=((2,), (1, 1)),"
        " cumulative=(2, 3))",
    ),
    "OrderedTree": (
        lambda: OrderedTree.from_text("(())"),
        lambda: OrderedTree.from_text("(()())"),
        "OrderedTree.from_text('(())')",
    ),
    "DyckPath": (lambda: DyckPath("UD"), lambda: DyckPath("UUDD"), "DyckPath(word='UD')"),
    "OrderedSetPartition": (
        lambda: OrderedSetPartition(((2,), (1,))),
        lambda: OrderedSetPartition(((1,), (2,))),
        "OrderedSetPartition(blocks=((2,), (1,)))",
    ),
    "LabeledSemiorder": (
        lambda: LabeledSemiorder(Semiorder((0,)), ((1, 2),)),
        lambda: LabeledSemiorder(Semiorder((1, 0)), ((1,), (2,))),
        "LabeledSemiorder(seed=Semiorder(rho=(0,)), blocks=((1, 2),))",
    ),
    "GenericPoset": (
        lambda: GenericPoset(ROWS),
        lambda: GenericPoset(((False, False), (True, False))),
        "GenericPoset(rows=((False, True), (False, False)))",
    ),
    "TrunkTree": (lambda: TrunkTree((1, 0)), lambda: TrunkTree((0, 1)), "TrunkTree(leaf_counts=(1, 0))"),
}
FIELDS = {
    "Semiorder": ("rho",),
    "ComparabilityMatrix": ("rows",),
    "LevelProfile": ("level_of", "sizes"),
    "LevelLinkage": ("sizes", "child_counts", "suffix_sums", "cumulative"),
    "OrderedTree": ("children",),
    "DyckPath": ("word",),
    "OrderedSetPartition": ("blocks",),
    "LabeledSemiorder": ("seed", "blocks"),
    "GenericPoset": ("rows",),
    "TrunkTree": ("leaf_counts",),
}

each_class = pytest.mark.parametrize("name", sorted(CASES))


@each_class
def test_fields_cannot_be_assigned_or_deleted(name):
    value = CASES[name][0]()
    for field in FIELDS[name]:
        before = getattr(value, field)
        with pytest.raises(AttributeError, match=field):
            setattr(value, field, before)
        with pytest.raises(AttributeError, match=field):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@each_class
def test_repr_is_pinned(name):
    assert repr(CASES[name][0]()) == CASES[name][2]


@each_class
def test_equal_values_hash_equal(name):
    build, other, _ = CASES[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other() and not a == other()
    assert len({a, b, other()}) == 2


@each_class
def test_every_field_takes_part_in_equality(name):
    build, other, _ = CASES[name]
    value, different = build(), other()
    for field in FIELDS[name]:
        assert getattr(different, field) != getattr(value, field)
        twin = object.__new__(type(value))  # differs from value in this field only
        for f in FIELDS[name]:
            object.__setattr__(twin, f, getattr(different if f == field else value, f))
        assert twin != value


@each_class
def test_copy_and_pickle_round_trip(name):
    value = CASES[name][0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)


@each_class
def test_other_classes_with_the_same_fields_are_unequal(name):
    value = CASES[name][0]()
    for other_name, (build, _, _) in CASES.items():
        if other_name != name:
            assert value != build()
    fields = tuple(getattr(value, field) for field in FIELDS[name])
    assert value != fields and value != fields[0]


def test_matrix_and_poset_with_equal_rows_are_unequal():
    assert ComparabilityMatrix(ROWS) != GenericPoset(ROWS)
    assert GenericPoset(ROWS) != ComparabilityMatrix(ROWS)
    assert Semiorder((1, 0)) != TrunkTree((1, 0))


def package_value_classes():
    """Every Frozen subclass the package defines, once all its submodules are loaded."""
    for info in pkgutil.iter_modules(semiorders.__path__):
        import_module(f"semiorders.{info.name}")
    found, todo = [], [Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("semiorders."):
                found.append(cls)
    return found


def test_every_value_class_has_a_case():
    assert sorted(cls.__qualname__ for cls in package_value_classes()) == sorted(CASES)


def test_only_frozen_defines_eq_and_hash():
    for cls in package_value_classes():
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls


def test_wrong_number_of_fields_is_a_type_error():
    with pytest.raises(TypeError):
        LevelProfile((1,))


@each_class
def test_repr_evaluates_back(name):
    value = CASES[name][0]()
    names = {cls.__qualname__: cls for cls in package_value_classes()}
    assert eval(repr(value), names) == value


def test_fields_by_keyword():
    assert LevelProfile(sizes=(1, 1), level_of=(1, 2)) == LevelProfile((1, 2), (1, 1))
    assert LevelProfile((1, 2), sizes=(1, 1)) == LevelProfile((1, 2), (1, 1))
    for bad in ({"sizes": (1, 1)}, {"level_of": (1, 2), "sizes": (1, 1), "extra": 0}):
        with pytest.raises(TypeError):
            LevelProfile(**bad)
    with pytest.raises(TypeError):
        LevelProfile((1, 2), level_of=(1, 2))
