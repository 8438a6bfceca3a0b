"""Labeled counts via the substitution transform, and the ordered-partition
bijection onto labeled length-<=1 semiorders."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiorders.core import (
    LengthTooLargeError,
    Semiorder,
    comparability,
    contraction,
    level_profile,
)
from semiorders.counting import InvalidParametersError, catalan, series_exact, series_leq
from semiorders.labeled import (
    InvalidPartitionError,
    LabeledSemiorder,
    OrderedSetPartition,
    all_ordered_partitions,
    count_labeled_exact,
    count_labeled_leq,
    labeled_semiorder_to_partition,
    ordered_bell,
    partition_to_labeled_semiorder,
    staircase_seed,
    substitute_one_minus_exp,
)
from semiorders.oracle import enumerate_semiorders


def stirling2_table(max_n):
    """S(n, k) for 0 <= k <= n <= max_n; S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    table = [[1]]
    for n in range(1, max_n + 1):
        row = [0] * (n + 1)
        prev = table[n - 1]
        for k in range(1, n + 1):
            row[k] = k * prev[k] if k < n else 0
            row[k] += prev[k - 1]
        table.append(row)
    return table


def reference_transform(coeffs):
    """sum_k f_k (-1)^(n-k) k! S(n, k) for every n, straight off the Stirling table."""
    order = len(coeffs) - 1
    stirling = stirling2_table(order)
    out = [coeffs[0]]
    for n in range(1, order + 1):
        factorial_k = 1
        total = 0
        for k in range(0, n + 1):
            if k:
                factorial_k *= k
            sign = -1 if (n - k) % 2 else 1
            total += coeffs[k] * sign * factorial_k * stirling[n][k]
        out.append(total)
    return tuple(out)


def labeled_from_relation(rows):
    """Canonicalize an explicit labeled strictly-greater matrix.

    ``rows[a][b]`` says label a+1 is above label b+1.  Equivalent labels are grouped, classes are ordered
    canonically (class below-count descending, then above-count
    ascending), and the seed is read off the class relation, which it must
    reproduce.
    """
    n = len(rows)
    classes: list[list[int]] = []
    signatures: list[tuple] = []
    for a in range(n):
        sig_down = frozenset(b for b in range(n) if rows[a][b])
        sig_up = frozenset(b for b in range(n) if rows[b][a])
        sig = (sig_down, sig_up)
        for c, known in enumerate(signatures):
            if known == sig:
                classes[c].append(a)
                break
        else:
            signatures.append(sig)
            classes.append([a])
    reps = [c[0] for c in classes]
    below = [sum(1 for other in reps if rows[rep][other]) for rep in reps]
    above = [sum(1 for other in reps if rows[other][rep]) for rep in reps]
    order = sorted(range(len(reps)), key=lambda c: (-below[c], above[c]))
    seed = Semiorder(tuple(below[c] for c in order))
    if comparability(seed).rows != tuple(tuple(bool(rows[reps[a]][reps[b]]) for b in order) for a in order):
        raise ValueError("matrix is not the comparability relation of a semiorder")
    blocks = tuple(tuple(a + 1 for a in classes[c]) for c in order)
    return LabeledSemiorder(seed, blocks)


class TestStirling:
    def test_small_values(self):
        table = stirling2_table(5)
        assert table[3][2] == 3
        assert all(table[n][n] == 1 for n in range(6))
        assert all(table[n][1] == 1 for n in range(1, 6))

    def test_row_sum_is_bell_number(self):
        # Bell(4) counted independently by collapsing ordered partitions
        unordered = {frozenset(p.blocks) for p in all_ordered_partitions(4)}
        assert sum(stirling2_table(4)[4]) == len(unordered) == 15


class TestTransform:
    def test_antichain_series_maps_to_all_ones(self):
        assert substitute_one_minus_exp((1,) * 13) == (1,) * 13

    def test_length_one_gives_ordered_bell(self):
        got = substitute_one_minus_exp(series_leq(1, 12))
        assert got == tuple(ordered_bell(n) for n in range(13))
        assert got[:6] == (1, 1, 3, 13, 75, 541)

    def test_catalan_series_gives_labeled_semiorders(self):
        got = substitute_one_minus_exp(tuple(catalan(k) for k in range(6)))
        assert got == (1, 1, 3, 19, 183, 2371)

    @pytest.mark.parametrize("h", range(9))
    def test_nonnegative(self, h):
        assert all(g >= 0 for g in substitute_one_minus_exp(series_leq(h, 20)))

    @settings(deadline=None)
    @given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=80))
    def test_matches_the_stirling_table(self, coeffs):
        assert substitute_one_minus_exp(coeffs) == reference_transform(coeffs)

    def test_empty_series_is_rejected(self):
        with pytest.raises(InvalidParametersError, match="at least one coefficient"):
            substitute_one_minus_exp(())


class TestLabeledCounts:
    def test_ordered_bell_route(self):
        for n in range(13):
            assert count_labeled_leq(n, 1) == ordered_bell(n)

    def test_antichain_only(self):
        for n in range(11):
            assert count_labeled_leq(n, 0) == 1

    @pytest.mark.parametrize("n", range(9))
    def test_stabilizes_at_full_labeled_count(self, n):
        full = substitute_one_minus_exp(tuple(catalan(k) for k in range(n + 1)))[n]
        values = [count_labeled_leq(n, h) for h in range(max(n, 1) + 2)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        for h in range(max(n - 1, 0), len(values)):
            assert values[h] == full

    @pytest.mark.parametrize("n, h", [(2.0, 1), (5, 2.0), (3, "2"), (None, 0)])
    def test_non_integer_sizes_are_rejected(self, n, h):
        for count in (count_labeled_leq, count_labeled_exact):
            with pytest.raises(InvalidParametersError, match="need integers n and h"):
                count(n, h)

    def test_bools_count_as_integers(self):
        assert count_labeled_leq(True, False) == count_labeled_leq(1, 0) == 1
        assert count_labeled_exact(3, True) == count_labeled_exact(3, 1) == 12

    def test_exact_is_difference(self):
        for n in range(9):
            for h in range(1, 6):
                assert count_labeled_exact(n, h) == count_labeled_leq(n, h) - count_labeled_leq(n, h - 1)
        assert count_labeled_exact(4, 0) == 1
        assert count_labeled_exact(0, 0) == 0  # same convention as the unlabeled side


    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 200), st.integers(0, 30))
    def test_one_coefficient_matches_the_whole_transform(self, n, h):
        assert count_labeled_leq(n, h) == reference_transform(series_leq(h, n))[n]
        assert count_labeled_exact(n, h) == reference_transform(series_exact(h, n))[n]


class TestPowerSum:
    """count_labeled_* take entry n as a power sum over the coefficients of F(1 + y),
    packed in one int; the series keeps the rolling row, so each checks the other."""

    def test_catalan_series_where_the_slots_are_widest(self):
        reference = reference_transform(tuple(catalan(k) for k in range(401)))
        for n in [*range(40), *range(40, 400, 9), 400]:
            assert count_labeled_leq(n, max(n - 1, 0)) == reference[n]
        assert count_labeled_leq(400, 1000) == reference[400]

    def test_smallest_sizes_and_bools(self):
        assert [count_labeled_leq(0, h) for h in range(4)] == [1, 1, 1, 1]
        assert [count_labeled_exact(0, h) for h in range(4)] == [0, 0, 0, 0]
        assert [count_labeled_leq(1, h) for h in range(4)] == [1, 1, 1, 1]
        assert [count_labeled_exact(1, h) for h in range(4)] == [1, 0, 0, 0]
        assert [count_labeled_exact(n, 0) for n in range(1, 30)] == [1] * 29
        assert [count_labeled_exact(n, n - 1) for n in range(1, 30)] == list(map(math.factorial, range(1, 30)))
        assert count_labeled_leq(True, True) == count_labeled_exact(True, False) == 1
        assert count_labeled_exact(False, True) == 0 and count_labeled_leq(2, True) == 3

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 400), st.integers(0, 40))
    def test_matches_the_rolling_row(self, n, h):
        assert count_labeled_leq(n, h) == substitute_one_minus_exp(series_leq(h, n))[n]
        assert count_labeled_exact(n, h) == substitute_one_minus_exp(series_exact(h, n))[n]


def reference_ordered_bells(top):
    """a(0..top) by a(m) = sum_k binom(m, k) a(m-k), one math.comb per term:
    the loop the rolled Pascal row replaced."""
    values = [1]
    for m in range(1, top + 1):
        values.append(sum(math.comb(m, k) * values[m - k] for k in range(1, m + 1)))
    return values


class TestOrderedBell:
    def test_small(self):
        assert ordered_bell(0) == 1
        assert ordered_bell(1) == 1
        assert ordered_bell(3) == 13

    @pytest.mark.parametrize("n", range(7))
    def test_matches_enumeration(self, n):
        assert sum(1 for _ in all_ordered_partitions(n)) == ordered_bell(n)

    def test_matches_the_binomial_loop(self):
        reference = reference_ordered_bells(300)
        assert [ordered_bell(n) for n in range(151)] == reference[:151]
        assert ordered_bell(300) == reference[300]


class TestPartitionCodec:
    def test_roundtrip(self):
        text = "{1,4}{2,6,8}{7}{3,5}"
        assert OrderedSetPartition.from_text(text).to_text() == text

    def test_rejects_bad_text(self):
        for bad in ("1,2", "{1,}", "{}", "{1}{1}", "{2}"):
            with pytest.raises(InvalidPartitionError):
                OrderedSetPartition.from_text(bad)

    def test_rejects_labels_repeated_inside_a_block(self):
        for blocks in (((1, 1),), ((1, 1), (2,)), ((1, 2, 2), (3,))):
            with pytest.raises(InvalidPartitionError):
                OrderedSetPartition(blocks)
            with pytest.raises(InvalidPartitionError):
                LabeledSemiorder(Semiorder((0,) * len(blocks)), blocks)
        with pytest.raises(InvalidPartitionError):
            OrderedSetPartition.from_text("{1,1}{2}")


class TestStaircaseSeeds:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_staircase_is_a_rigid_seed(self, k):
        seed = staircase_seed(k)
        assert seed.n == k
        assert level_profile(seed).length <= 1
        assert contraction(seed) == (seed, (1,) * k)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_short_semiorder_contracts_to_a_staircase(self, n):
        for s in enumerate_semiorders(n):
            if level_profile(s).length > 1:
                continue
            seed, _ = contraction(s)
            assert seed == staircase_seed(seed.n)


class TestPartitionBijection:
    def test_worked_example(self):
        partition = OrderedSetPartition.from_text("{1,4}{2,6,8}{7}{3,5}")
        labeled = partition_to_labeled_semiorder(partition)
        assert labeled.seed == Semiorder((2, 1, 0, 0))
        assert labeled.multiplicities == (2, 3, 1, 2)
        assert labeled.underlying() == Semiorder((3, 3, 2, 2, 2, 0, 0, 0))
        assert labeled_semiorder_to_partition(labeled) == partition

    def test_single_block(self):
        labeled = partition_to_labeled_semiorder(OrderedSetPartition(((1, 2, 3),)))
        assert labeled.seed == Semiorder((0,))
        assert labeled.underlying() == Semiorder((0, 0, 0))

    def test_non_staircase_rejected(self):
        chain = LabeledSemiorder(Semiorder((2, 1, 0)), ((1,), (2,), (3,)))
        with pytest.raises(LengthTooLargeError):
            labeled_semiorder_to_partition(chain)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_roundtrip_and_image_count(self, n):
        images = set()
        for partition in all_ordered_partitions(n):
            labeled = partition_to_labeled_semiorder(partition)
            assert labeled_semiorder_to_partition(labeled) == partition
            images.add(labeled)
        assert len(images) == ordered_bell(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_surjective_onto_labeled_short_semiorders(self, n):
        # ground truth: every labeled strict order on [n] that is a
        # semiorder of length <= 1, canonicalized independently
        from semiorders.oracle import is_semiorder_poset, labeled_posets

        truth = set()
        for poset in labeled_posets(n):
            if not is_semiorder_poset(poset):
                continue
            labeled = labeled_from_relation(poset.rows)
            if level_profile(labeled.underlying()).length > 1:
                continue
            truth.add(labeled)
        images = {
            partition_to_labeled_semiorder(p) for p in all_ordered_partitions(n)
        }
        assert images == truth


class TestLabeledFromRelation:
    def test_worked_example_relation(self):
        # labels {1,4} above {7,3,5}; labels {2,6,8} above {3,5}
        n = 8
        rows = [[False] * n for _ in range(n)]
        for a in (1, 4):
            for b in (7, 3, 5):
                rows[a - 1][b - 1] = True
        for a in (2, 6, 8):
            for b in (3, 5):
                rows[a - 1][b - 1] = True
        labeled = labeled_from_relation(rows)
        assert labeled.seed == Semiorder((2, 1, 0, 0))
        assert labeled.blocks == ((1, 4), (2, 6, 8), (7,), (3, 5))

    def test_validation(self):
        with pytest.raises(InvalidPartitionError):
            LabeledSemiorder(Semiorder((0, 0)), ((1, 2),))
        with pytest.raises(InvalidPartitionError):
            LabeledSemiorder(Semiorder((0, 0)), ((1,), (1,)))


class TestRigidSeed:
    """A labeled semiorder has one form: its seed has no two equivalent elements."""

    def test_expanded_seed_rejected_in_favour_of_its_contraction(self):
        with pytest.raises(InvalidPartitionError, match="rigid"):
            LabeledSemiorder(Semiorder((0, 0)), ((1,), (2,)))
        labeled = LabeledSemiorder(Semiorder((0,)), ((1, 2),))
        assert labeled.underlying() == Semiorder((0, 0))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exactly_the_rigid_seeds_construct(self, n):
        blocks = tuple((label,) for label in range(1, n + 1))
        for s in enumerate_semiorders(n):
            rows = comparability(s).rows  # row e: what e is above; column e: what is above e
            relations = [(tuple(r[e] for r in rows), rows[e]) for e in range(n)]
            if len(set(relations)) == n:  # no two elements compare alike with the rest
                assert LabeledSemiorder(s, blocks).underlying() == s
            else:
                with pytest.raises(InvalidPartitionError):
                    LabeledSemiorder(s, blocks)
