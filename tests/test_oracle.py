"""Brute-force ground truth: vector enumeration, generic posets, patterns."""

import copy
import functools
import pickle
from itertools import islice, permutations

import pytest

from semiorders.core import Semiorder, comparability
from semiorders.counting import catalan, count_exact
from semiorders.oracle import (
    BoundExceededError,
    GenericPoset,
    Pattern,
    _naturally_labeled,
    enumerate_posets,
    enumerate_semiorders,
    has_pattern,
    is_semiorder_poset,
    labeled_posets,
    oracle_counts,
)


class TestEnumerateSemiorders:
    def test_three_elements_lexicographic(self):
        got = [s.rho for s in enumerate_semiorders(3)]
        assert got == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0)]

    def test_zero_elements(self):
        assert list(enumerate_semiorders(0)) == [Semiorder(())]

    @pytest.mark.parametrize("n", range(13))
    def test_catalan_many(self, n):
        assert sum(1 for _ in enumerate_semiorders(n)) == catalan(n)

    @pytest.mark.parametrize("n", range(10))
    def test_order_matches_recursive_generator(self, n):
        assert [s.rho for s in enumerate_semiorders(n)] == list(recursive_vectors(n))

    @pytest.mark.parametrize("n", range(11))
    def test_vectors_pass_the_checked_constructor(self, n):
        for s in enumerate_semiorders(n):
            assert type(s) is Semiorder and type(s.rho) is tuple
            assert Semiorder(s.rho) == s
            assert copy.copy(s) == s == pickle.loads(pickle.dumps(s))

    def test_forced_deep_start(self):
        first = [s.rho for s in islice(enumerate_semiorders(1500, force=True), 3)]
        assert first == [(0,) * 1500, (1,) + (0,) * 1499, (1, 1) + (0,) * 1498]

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            list(enumerate_semiorders(15))
        assert next(enumerate_semiorders(15, force=True)) == Semiorder((0,) * 15)

    def test_negative_n_is_not_a_bound_overflow(self):
        calls = (
            lambda: list(enumerate_semiorders(-1)),
            lambda: list(enumerate_semiorders(-1, force=True)),
            lambda: list(labeled_posets(-1)),
            lambda: enumerate_posets(-1),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"^need n >= 0; got -1$") as caught:
                call()
            assert not isinstance(caught.value, BoundExceededError)


def recursive_vectors(n):
    """The one-generator-per-entry enumeration the successor loop replaced."""

    def rec(prefix, i):
        if i > n:
            yield tuple(prefix)
            return
        for r in range(min(prefix[-1] if prefix else n - 1, n - i) + 1):
            prefix.append(r)
            yield from rec(prefix, i + 1)
            prefix.pop()

    yield from rec([], 1)


def poset_from_pairs(n, pairs):
    rows = [[False] * n for _ in range(n)]
    for a, b in pairs:
        rows[a][b] = True
    return GenericPoset(tuple(tuple(r) for r in rows))


class TestPatterns:
    def test_two_plus_two_itself(self):
        p = poset_from_pairs(4, [(0, 1), (2, 3)])
        assert has_pattern(p, Pattern.TWO_PLUS_TWO)
        assert not has_pattern(p, Pattern.THREE_PLUS_ONE)

    def test_three_plus_one_itself(self):
        p = poset_from_pairs(4, [(0, 1), (1, 2), (0, 2)])
        assert has_pattern(p, Pattern.THREE_PLUS_ONE)
        assert not has_pattern(p, Pattern.TWO_PLUS_TWO)

    def test_pattern_by_its_value(self):
        two_plus_two = poset_from_pairs(4, [(0, 1), (2, 3)])
        three_plus_one = poset_from_pairs(4, [(0, 1), (1, 2), (0, 2)])
        assert has_pattern(two_plus_two, "2+2") and not has_pattern(two_plus_two, "3+1")
        assert has_pattern(three_plus_one, "3+1") and not has_pattern(three_plus_one, "2+2")

    def test_unknown_pattern(self):
        p = poset_from_pairs(4, [(0, 1), (1, 2), (0, 2)])
        for pattern in ("bogus", "2 + 2", None):
            with pytest.raises(ValueError):
                has_pattern(p, pattern)

    def test_four_chain_has_neither(self):
        pairs = [(a, b) for a in range(4) for b in range(4) if a < b]
        p = poset_from_pairs(4, pairs)
        assert not has_pattern(p, Pattern.TWO_PLUS_TWO)
        assert not has_pattern(p, Pattern.THREE_PLUS_ONE)

    @pytest.mark.parametrize("n", range(8))
    def test_all_vectors_are_pattern_free(self, n):
        for s in enumerate_semiorders(n):
            p = GenericPoset(comparability(s).rows)
            assert not has_pattern(p, Pattern.TWO_PLUS_TWO)
            assert not has_pattern(p, Pattern.THREE_PLUS_ONE)

    def test_validation(self):
        with pytest.raises(ValueError):
            GenericPoset(((True,),))  # reflexive
        with pytest.raises(ValueError):
            GenericPoset(((False, True), (True, False)))  # symmetric
        with pytest.raises(ValueError):
            poset_from_pairs(3, [(0, 1), (1, 2)])  # not transitive

    @pytest.mark.parametrize("rows", [
        ((False, False, False), (False, False, False)),  # 2 rows of 3 entries
        ((False,), (False, False)),  # ragged
    ])
    def test_non_square_matrix(self, rows):
        with pytest.raises(ValueError, match="need a square matrix"):
            GenericPoset(rows)


@functools.cache
def insertion_posets(n):
    """Rows of every labeled poset on n points, built by inserting element k
    into each poset on {0, ..., k-1} with every compatible pair (D, U): D
    down-closed, U up-closed, disjoint, and D inside the down-set of every
    member of U.  The generator the naturally labeled route replaced."""
    posets = [()]  # down-set bitmasks per element
    for k in range(n):
        extended = []
        for downs in posets:
            above = [sum(1 << f for f in range(k) if downs[f] >> e & 1) for e in range(k)]
            down_choices = [
                d for d in range(1 << k) if all(downs[e] | d == d for e in range(k) if d >> e & 1)
            ]
            up_choices = [
                u for u in range(1 << k) if all(above[e] | u == u for e in range(k) if u >> e & 1)
            ]
            for d in down_choices:
                for u in up_choices:
                    if d & u:
                        continue
                    # transitivity through k: everything in D already below everything in U
                    if any(downs[e] | d != downs[e] for e in range(k) if u >> e & 1):
                        continue
                    extended.append(
                        tuple(downs[e] | (1 << k) if u >> e & 1 else downs[e] for e in range(k))
                        + (d,)
                    )
        posets = extended
    return [tuple(tuple(bool(downs[i] >> j & 1) for j in range(n)) for i in range(n)) for downs in posets]


def reference_canonical_form(rows):
    """Least flattened matrix over all relabelings, one comparison at a time."""
    n = len(rows)
    best = None
    for perm in permutations(range(n)):
        flat = tuple(rows[perm[i]][perm[j]] for i in range(n) for j in range(n))
        if best is None or flat < best:
            best = flat
    return best


class TestGenericEnumeration:
    @pytest.mark.parametrize("n", range(6))
    def test_labeled_matches_insertion_reference(self, n):
        got = [p.rows for p in labeled_posets(n)]
        assert len(got) == len(set(got)) == len(insertion_posets(n))
        assert set(got) == set(insertion_posets(n))
        assert got == sorted(got)

    @pytest.mark.parametrize("n", range(6))
    def test_classes_match_insertion_reference(self, n):
        forms = sorted({reference_canonical_form(rows) for rows in insertion_posets(n)})
        classes = enumerate_posets(n)
        assert [p.canonical_form() for p in classes] == forms
        for p in classes:
            assert p.canonical_form() == sum(p.rows, ()) == reference_canonical_form(p.rows)

    def test_classes_come_from_naturally_labeled_orders(self):
        natural = list(_naturally_labeled(5))
        assert len(natural) == 357
        for p in natural:
            assert not any(p.rows[i][j] for i in range(5) for j in range(i + 1))

    def test_labeled_counts(self):
        assert [sum(1 for _ in labeled_posets(n)) for n in range(6)] == [1, 1, 3, 19, 219, 4231]

    def test_labeled_bound(self):
        with pytest.raises(BoundExceededError):
            list(labeled_posets(6))

    def test_class_bound(self):
        with pytest.raises(BoundExceededError):
            enumerate_posets(6)

    def test_class_counts(self):
        assert [len(enumerate_posets(n)) for n in range(6)] == [1, 1, 2, 5, 16, 63]

    def test_semiorder_classes_at_four(self):
        kept = [p for p in enumerate_posets(4) if is_semiorder_poset(p)]
        assert len(kept) == 14 == catalan(4)

    def test_two_element_classes(self):
        classes = enumerate_posets(2)
        lengths = sorted(p.length() for p in classes)
        assert lengths == [0, 1]  # antichain and chain


class TestOracleCounts:
    def test_three_elements(self):
        assert oracle_counts(3) == {0: 1, 1: 3, 2: 1}

    def test_five_elements(self):
        hist = oracle_counts(5)
        assert hist[1] == 15  # 2^4 - 1 once the antichain is removed
        assert sum(hist.values()) == catalan(5) == 42

    @pytest.mark.parametrize("n", range(1, 6))
    def test_routes_agree(self, n):
        assert oracle_counts(n, route="vectors") == oracle_counts(n, route="posets")

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_formula_counts(self, n):
        hist = oracle_counts(n)
        for h in range(n):
            assert hist.get(h, 0) == count_exact(n, h)

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            oracle_counts(3, route="divination")
