"""Trunk trees, right-to-left minima, and the peak bijection with Dyck paths."""

import warnings
from itertools import permutations

import pytest

from semiorders.core import LengthTooLargeError, Semiorder, level_profile
from semiorders.counting import catalan
from semiorders.oracle import enumerate_semiorders
from semiorders.trees import all_dyck_words
from semiorders.trunk import (
    HypothesisViolatedWarning,
    InvalidRtlmSetError,
    NotAPermutationError,
    TrunkTree,
    count_trunk_trees,
    dyck_to_rtlm,
    narayana,
    rtl_minima,
    rtlm_to_dyck,
    trunk_tree,
    upper_count,
)

TWELVE_ELEMENT = Semiorder((7, 5, 4, 2, 1, 0, 0, 0, 0, 0, 0, 0))


def staircase(m):
    return Semiorder(tuple(range(m, 0, -1)) + (0,) * m)


class TestRtlMinima:
    def test_five_example(self):
        assert rtl_minima((1, 5, 3, 2, 4)) == ((1, 1), (4, 2), (5, 4))

    def test_seven_example(self):
        assert rtl_minima((2, 5, 1, 3, 6, 4, 7)) == ((3, 1), (4, 3), (6, 4), (7, 7))

    def test_identity(self):
        assert rtl_minima((1, 2, 3, 4)) == tuple((i, i) for i in range(1, 5))

    def test_rejects_non_permutation(self):
        with pytest.raises(NotAPermutationError):
            rtl_minima((1, 1, 2))


class TestTrunkTree:
    def test_worked_example(self):
        tree = trunk_tree(TWELVE_ELEMENT, (1, 5, 3, 2, 4))
        assert tree == TrunkTree((2, 0, 0, 3, 2))
        assert tree.trunk_length == 5
        assert tree.total_leaves == 7

    def test_caterpillar(self):
        m = 4
        tree = trunk_tree(staircase(m), tuple(range(1, m + 1)))
        assert tree == TrunkTree((1,) * m)

    def test_leaf_counts_follow_difference_rule(self):
        # leaves hang at the right-to-left minima; counts are consecutive
        # differences of the upper entries indexed by the minima values
        s = TWELVE_ELEMENT
        m = upper_count(s)
        for sigma in permutations(range(1, m + 1)):
            pairs = rtl_minima(sigma)
            values = [b for _, b in pairs]
            expected = [0] * m
            for idx, (pos, value) in enumerate(pairs):
                nxt = s.rho[values[idx + 1] - 1] if idx + 1 < len(pairs) else 0
                expected[pos - 1] = s.rho[value - 1] - nxt
            assert trunk_tree(s, sigma) == TrunkTree(tuple(expected))

    def test_rejects_long_semiorders(self):
        with pytest.raises(LengthTooLargeError):
            trunk_tree(Semiorder((2, 1, 0)), (1,))

    def test_rejects_wrong_permutation_size(self):
        with pytest.raises(NotAPermutationError):
            trunk_tree(TWELVE_ELEMENT, (1, 2, 3))

    @pytest.mark.parametrize("m", range(1, 5))
    def test_depends_only_on_minima(self, m):
        s = staircase(m)
        by_minima = {}
        for sigma in permutations(range(1, m + 1)):
            key = rtl_minima(sigma)
            shape = trunk_tree(s, sigma)
            assert by_minima.setdefault(key, shape) == shape


class TestCounting:
    def test_twelve_element_example_counts_catalan(self):
        assert count_trunk_trees(TWELVE_ELEMENT) == catalan(5) == 42

    @pytest.mark.parametrize("m", range(1, 6))
    def test_staircases(self, m):
        assert count_trunk_trees(staircase(m)) == catalan(m)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_permutation_definition(self, n):
        # every length-<=1 vector, repeated upper entries included
        for s in enumerate_semiorders(n):
            if level_profile(s).length > 1:
                continue
            m = upper_count(s)
            shapes = {trunk_tree(s, sigma) for sigma in permutations(range(1, m + 1))}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", HypothesisViolatedWarning)
                assert count_trunk_trees(s) == len(shapes)

    def test_flagged_when_uppers_repeat(self):
        with pytest.warns(HypothesisViolatedWarning):
            assert count_trunk_trees(Semiorder((0, 0, 0))) == 1

    def test_narayana_values(self):
        assert narayana(3, 2) == 3
        for m in range(1, 13):
            assert sum(narayana(m, k) for k in range(1, m + 1)) == catalan(m)
        with pytest.raises(ValueError):
            narayana(3, 0)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_minima_classes_are_narayana(self, m):
        classes = {}
        for sigma in permutations(range(1, m + 1)):
            pairs = rtl_minima(sigma)
            classes.setdefault(len(pairs), set()).add(pairs)
        for k in range(1, m + 1):
            assert len(classes.get(k, ())) == narayana(m, k)


class TestPeakBijection:
    def test_four_peak_walk(self):
        pairs = ((3, 1), (4, 3), (6, 4), (7, 7))
        path = rtlm_to_dyck(pairs, 7)
        assert path.word == "UUUDDUDUUDDDUD"
        assert dyck_to_rtlm(path) == pairs

    def test_single_peak(self):
        for m in range(1, 6):
            path = rtlm_to_dyck(((m, 1),), m)
            assert path.word == "U" * m + "D" * m
            assert dyck_to_rtlm(path) == ((m, 1),)

    def test_peak_count_matches_pair_count(self):
        for m in range(1, 7):
            for sigma in permutations(range(1, m + 1)):
                pairs = rtl_minima(sigma)
                path = rtlm_to_dyck(pairs, m)
                assert path.semilength == m
                assert len(dyck_to_rtlm(path)) == len(pairs)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_roundtrip_from_dyck_words(self, m):
        for path in all_dyck_words(m):
            pairs = dyck_to_rtlm(path)
            assert rtlm_to_dyck(pairs, m) == path

    def test_invalid_sets_rejected(self):
        with pytest.raises(InvalidRtlmSetError):
            rtlm_to_dyck(((1, 1), (3, 3)), 3)  # gap: position 1 < value 3 - 1
        with pytest.raises(InvalidRtlmSetError):
            rtlm_to_dyck(((1, 2), (3, 3)), 3)  # first value must be 1
        with pytest.raises(InvalidRtlmSetError):
            rtlm_to_dyck(((1, 1), (2, 2)), 3)  # last position must be m
        with pytest.raises(InvalidRtlmSetError):
            rtlm_to_dyck((), 3)
