"""Trunk trees, right-to-left minima, and the peak bijection with Dyck paths."""

import io
import time
import warnings
from itertools import islice, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiorders.cli import run
from semiorders.core import LengthTooLargeError, Semiorder, level_profile
from semiorders.counting import catalan
from semiorders.oracle import enumerate_semiorders
from semiorders.trees import DyckPath, all_dyck_words
from semiorders.trunk import (
    HypothesisViolatedWarning,
    InvalidRtlmSetError,
    NotAPermutationError,
    TrunkTree,
    _shapes,
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


def reference_shapes(s):
    """Sorted distinct shapes by the C_m walk: every Dyck word of semilength
    m gives a right-to-left-minima set (p_1, v_1), ..., (p_k, v_k), and
    position p_j carries r_{v_j} - r_{v_{j+1}} leaves (r_{v_{k+1}} = 0)."""
    m = upper_count(s)
    shapes = set()
    for path in all_dyck_words(m):
        pairs = dyck_to_rtlm(path)
        below = [s.rho[value - 1] for _, value in pairs] + [0]
        leaves = [0] * m
        for j, (pos, _) in enumerate(pairs):
            leaves[pos - 1] = below[j] - below[j + 1]
        shapes.add(tuple(leaves))
    return sorted(shapes)


def reference_rtlm_to_dyck(pairs, m):
    """rtlm_to_dyck as it was written before the walk's own round trip
    checked it: four hand-derived conditions, then the walk."""
    seq = tuple((int(a), int(b)) for a, b in pairs)
    if not seq:
        if m == 0:  # the empty permutation's minima: the empty path
            return DyckPath("")
        raise InvalidRtlmSetError("need at least one pair")
    positions = [a for a, _ in seq]
    values = [b for _, b in seq]
    if positions != sorted(set(positions)) or values != sorted(set(values)):
        raise InvalidRtlmSetError("positions and values must be strictly increasing")
    if values[0] != 1 or positions[-1] != m or values[-1] > m or positions[0] < 1:
        raise InvalidRtlmSetError("need value 1 first and position m last")
    for i in range(len(seq) - 1):
        if positions[i] < values[i + 1] - 1:
            raise InvalidRtlmSetError(f"pair {seq[i + 1]} cannot follow {seq[i]} in any permutation")
    steps = []
    prev_a = 0
    for i, (a, b) in enumerate(seq):
        steps.append("U" * (a - prev_a))
        next_b = seq[i + 1][1] if i + 1 < len(seq) else m + 1
        steps.append("D" * (next_b - b))
        prev_a = a
    return DyckPath("".join(steps))


def rtlm_outcome(to_dyck, pairs, m):
    """The path's word, or None where the pairs are rejected."""
    try:
        return to_dyck(pairs, m).word
    except InvalidRtlmSetError:
        return None


@st.composite
def rtlm_inputs(draw):
    """(pairs, m), m <= 9: a permutation's minima, perhaps with one coordinate
    nudged, or a list of pairs drawn at random."""
    m = draw(st.integers(0, 9))
    coordinate = st.integers(-1, m + 2)
    if m and draw(st.booleans()):
        pairs = [list(pair) for pair in rtl_minima(draw(st.permutations(range(1, m + 1))))]
        if draw(st.booleans()):
            pair = draw(st.sampled_from(pairs))
            pair[draw(st.integers(0, 1))] += draw(st.sampled_from((-1, 1)))
        return [tuple(pair) for pair in pairs], m
    return draw(st.lists(st.tuples(coordinate, coordinate), max_size=m + 2)), m


def length_one(uppers):
    """The length-<=1 vector whose upper entries are ``uppers``: r_1 lower
    elements, each below nothing."""
    return Semiorder(tuple(uppers) + (0,) * uppers[0])


@st.composite
def repeated_uppers(draw):
    """Upper entries r_1 >= ... >= r_m with m <= 9, drawn from few values so
    that repeats are common."""
    lower = draw(st.integers(0, 6))
    rest = draw(st.lists(st.integers(0, lower), max_size=8))
    return (lower,) + tuple(sorted(rest, reverse=True))


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

    def test_empty_permutation(self):
        assert rtl_minima(()) == dyck_to_rtlm(DyckPath("")) == ()
        assert rtlm_to_dyck((), 0) == DyckPath("")
        with pytest.raises(InvalidRtlmSetError):
            rtlm_to_dyck((), 3)

    def test_invalid_sets_rejected(self):
        with pytest.raises(InvalidRtlmSetError):
            rtlm_to_dyck(((1, 1), (3, 3)), 3)  # gap: position 1 < value 3 - 1
        with pytest.raises(InvalidRtlmSetError):
            rtlm_to_dyck(((1, 2), (3, 3)), 3)  # first value must be 1
        with pytest.raises(InvalidRtlmSetError):
            rtlm_to_dyck(((1, 1), (2, 2)), 3)  # last position must be m
        with pytest.raises(InvalidRtlmSetError):
            rtlm_to_dyck((), 3)


class TestPeakSetsCheckedByTheirRoundTrip:
    """rtlm_to_dyck rejects exactly where the hand-derived conditions did,
    and otherwise walks to the same path."""

    @pytest.mark.parametrize("m", range(6))
    def test_every_short_pair_list(self, m):
        pairs = list(product(range(-1, m + 3), repeat=2))
        lists = (seq for length in range(4) for seq in product(pairs, repeat=length))
        assert [seq for seq in lists if rtlm_outcome(rtlm_to_dyck, seq, m)
                != rtlm_outcome(reference_rtlm_to_dyck, seq, m)] == []

    @settings(max_examples=500)
    @given(rtlm_inputs())
    def test_drawn_pair_lists(self, case):
        pairs, m = case
        assert rtlm_outcome(rtlm_to_dyck, pairs, m) == rtlm_outcome(reference_rtlm_to_dyck, pairs, m)

    def test_error_names_the_pairs_and_m(self):
        with pytest.raises(InvalidRtlmSetError, match=r"\(\(1, 1\), \(3, 3\)\).*1\.\.3"):
            rtlm_to_dyck([(1, 1), (3, 3)], 3)

    @pytest.mark.parametrize("pairs, m", [
        (((10**12, 1),), 5), (((-10**12, 1), (5, 2)), 5), (((1, 1),), 10**12),
    ])
    def test_huge_coordinates_are_rejected_unwritten(self, pairs, m):
        with pytest.raises(InvalidRtlmSetError):
            rtlm_to_dyck(pairs, m)


class TestShapesFromUpperEntries:
    """The listing and the count read the shapes straight off the upper
    entries; the C_m Dyck-word walk is the reference."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_length_one_vector(self, n):
        for s in enumerate_semiorders(n):
            if s.length > 1:
                continue
            expected = reference_shapes(s)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", HypothesisViolatedWarning)
                assert list(_shapes(s)) == expected
                assert count_trunk_trees(s) == len(expected)

    @settings(deadline=None)  # the reference walks 4,862 words at m = 9
    @given(repeated_uppers())
    def test_drawn_upper_entries(self, uppers):
        s = length_one(uppers)
        expected = reference_shapes(s)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisViolatedWarning)
            assert list(_shapes(s)) == expected
            assert count_trunk_trees(s) == len(expected)

    @pytest.mark.parametrize("j, a, b", [(1, 1, 0), (1, 5, 2), (150, 3, 1), (299, 2, 0), (300, 4, 3)])
    def test_two_values_closed_form(self, j, a, b):
        # phi stays at a up to position j, then drops to b at q in j+1..m or never
        m = 300
        s = length_one((a,) * j + (b,) * (m - j))
        expected = [(0,) * (m - 1) + (a,)]
        for q in range(m, j, -1):
            leaves = [0] * m
            leaves[q - 2] += a - b
            leaves[m - 1] += b
            expected.append(tuple(leaves))
        with pytest.warns(HypothesisViolatedWarning):
            assert count_trunk_trees(s) == m - j + 1
        with pytest.warns(HypothesisViolatedWarning):
            assert list(_shapes(s)) == sorted(expected) == expected

    def test_staircase_count_is_fast(self):
        start = time.perf_counter()
        assert count_trunk_trees(staircase(200)) == catalan(200)
        assert time.perf_counter() - start < 1.0

    def test_cli_listing_matches_reference(self):
        s = staircase(9)
        expected = "".join(",".join(map(str, shape)) + "\n" for shape in reference_shapes(s))
        out = io.StringIO()
        assert run(["trunk-trees", "--rho", s.to_text()], out) == 0
        assert out.getvalue() == expected

    def test_listing_streams(self):
        # C_60 shapes could never be held; the first ones come at once, in order
        start = time.perf_counter()
        first = list(islice(_shapes(staircase(60)), 2000))
        assert time.perf_counter() - start < 1.0
        assert first[0] == (0,) * 59 + (60,)
        assert first == sorted(set(first))
