"""Labeled counts via the substitution transform, and the ordered-partition
bijection onto labeled length-<=1 semiorders."""

import pytest

from semiorders.core import (
    LengthTooLargeError,
    Semiorder,
    contraction,
    down_set,
    level_profile,
    up_set,
)
from semiorders.counting import InvalidParametersError, catalan, series_leq
from semiorders.labeled import (
    InvalidPartitionError,
    LabeledSemiorder,
    OrderedSetPartition,
    all_ordered_partitions,
    count_labeled_exact,
    count_labeled_leq,
    labeled_from_relation,
    labeled_semiorder_to_partition,
    ordered_bell,
    partition_to_labeled_semiorder,
    staircase_seed,
    stirling2_table,
    substitute_one_minus_exp,
)
from semiorders.oracle import enumerate_semiorders


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

    def test_exact_is_difference(self):
        for n in range(9):
            for h in range(1, 6):
                assert count_labeled_exact(n, h) == count_labeled_leq(n, h) - count_labeled_leq(n, h - 1)
        assert count_labeled_exact(4, 0) == 1
        assert count_labeled_exact(0, 0) == 0  # same convention as the unlabeled side


class TestOrderedBell:
    def test_small(self):
        assert ordered_bell(0) == 1
        assert ordered_bell(1) == 1
        assert ordered_bell(3) == 13

    @pytest.mark.parametrize("n", range(7))
    def test_matches_enumeration(self, n):
        assert sum(1 for _ in all_ordered_partitions(n)) == ordered_bell(n)


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
            relations = [(up_set(s, e), down_set(s, e)) for e in range(1, n + 1)]
            if len(set(relations)) == n:  # no two elements compare alike with the rest
                assert LabeledSemiorder(s, blocks).underlying() == s
            else:
                with pytest.raises(InvalidPartitionError):
                    LabeledSemiorder(s, blocks)
