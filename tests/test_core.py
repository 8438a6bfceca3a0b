"""Vector validation, order relation, levels, bad elements, split/join,
and contraction/expansion."""

import random

import pytest

from semiorders.bijection import dyck_to_semiorder
from semiorders.core import (
    EmptySemiorderError,
    EntryTooLargeError,
    NegativeEntryError,
    NotNonincreasingError,
    Semiorder,
    bad_elements,
    comparability,
    contraction,
    down_set,
    equivalence_classes,
    expansion,
    induced,
    join,
    level_profile,
    semiorder_from_matrix,
    split,
    up_set,
)
from semiorders.counting import count_leq
from semiorders.oracle import enumerate_semiorders
from semiorders.trees import DyckPath


def closure(n, edges):
    rows = [[False] * n for _ in range(n)]
    for a, b in edges:
        rows[a - 1][b - 1] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if rows[i][j]:
                    for k in range(n):
                        if rows[j][k] and not rows[i][k]:
                            rows[i][k] = True
                            changed = True
    return tuple(tuple(r) for r in rows)


def random_semiorder(rng, n):
    """Uniform n-element semiorder: a uniform Dyck word through the bijection.

    Shuffle n up and n + 1 down steps and rotate past the first lowest
    point (cycle lemma); dropping the final down step leaves a Dyck word.
    """
    steps = ["U"] * n + ["D"] * (n + 1)
    rng.shuffle(steps)
    height = lowest = cut = 0
    for pos, step in enumerate(steps, start=1):
        height += 1 if step == "U" else -1
        if height < lowest:
            lowest, cut = height, pos
    return dyck_to_semiorder(DyckPath("".join(steps[cut:] + steps[:cut])[:-1]))


def chain_depths(rows):
    """1 + longest chain strictly above each element, from the matrix alone."""
    depth = []
    for j in range(len(rows)):  # only smaller indices sit above
        depth.append(1 + max((depth[i] for i in range(j) if rows[i][j]), default=0))
    return depth


def submatrix(rows, chosen):
    return [[rows[i - 1][j - 1] for j in chosen] for i in chosen]


def matrix_split(s):
    """Definition-direct split: grow T_1, T_2, ... on the comparability matrix."""
    rows = comparability(s).rows
    depth = chain_depths(rows)
    a1 = max(e for e in range(1, s.n + 1) if depth[e - 1] == 1)
    reached, frontier, lv = {a1}, {a1}, 1
    while frontier:
        lv += 1
        frontier = {
            j
            for j in range(1, s.n + 1)
            if depth[j - 1] == lv and any(rows[i - 1][j - 1] for i in frontier)
        }
        reached |= frontier
    rest = [e for e in range(1, s.n + 1) if e not in reached]
    s1 = semiorder_from_matrix(submatrix(rows, rest))
    s3 = semiorder_from_matrix(submatrix(rows, sorted(reached - {a1})))
    return s1, s3


def matrix_join(s1, s3):
    """Definition-direct join: S1 beside S2 = S3 under a new top, as a matrix."""
    parts = [comparability(s1).rows, comparability(Semiorder((s3.n,) + s3.rho)).rows]
    members = [(p, e, d) for p, rows in enumerate(parts) for e, d in enumerate(chain_depths(rows))]
    rows = [
        [
            parts[p][x][y] if p == q else dy - dx >= 2 or (p, q, dy - dx) == (0, 1, 1)
            for q, y, dy in members
        ]
        for p, x, dx in members
    ]
    return semiorder_from_matrix(rows)


class TestFromVector:
    def test_five_element_example(self):
        s = Semiorder.from_vector((3, 2, 0, 0, 0))
        assert down_set(s, 1) == {3, 4, 5}
        assert down_set(s, 2) == {4, 5}
        assert down_set(s, 3) == frozenset()

    def test_empty(self):
        assert Semiorder.from_vector(()).n == 0

    def test_entry_too_large(self):
        with pytest.raises(EntryTooLargeError) as err:
            Semiorder.from_vector((2, 2, 0))
        assert err.value.index == 2

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError) as err:
            Semiorder.from_vector((1, -1, 0))
        assert err.value.index == 2

    def test_not_nonincreasing(self):
        with pytest.raises(NotNonincreasingError) as err:
            Semiorder.from_vector((0, 1, 0))
        assert err.value.index == 2

    def test_text_roundtrip(self):
        for text in ("", "0", "7,6,4,2,2,1,1,1,0"):
            assert Semiorder.from_text(text).to_text() == text


class TestComparability:
    def test_five_element_example(self):
        m = comparability(Semiorder((3, 2, 0, 0, 0)))
        assert m.greater(1, 3) and not m.greater(2, 3)
        assert m.greater(2, 4) and m.greater(2, 5)

    def test_antichain_all_false(self):
        m = comparability(Semiorder((0,) * 4))
        assert not any(any(row) for row in m.rows)

    def test_matches_hasse_closure_of_nine_element_example(self):
        # Hasse edges of the 9-element length-3 example, elements numbered
        # in canonical vector order
        edges = [
            (1, 3), (1, 4), (1, 5),
            (2, 4), (2, 5), (2, 6), (2, 7),
            (3, 6), (3, 7), (3, 8),
            (4, 8), (5, 8),
            (6, 9), (7, 9), (8, 9),
        ]
        expected = closure(9, edges)
        got = comparability(Semiorder((7, 6, 4, 2, 2, 1, 1, 1, 0)))
        assert got.rows == expected

    @pytest.mark.parametrize("n", range(7))
    def test_transitive_and_irreflexive(self, n):
        for s in enumerate_semiorders(n):
            rows = comparability(s).rows
            for i in range(n):
                assert not rows[i][i]
                for j in range(n):
                    if rows[i][j]:
                        assert not rows[j][i]
                        assert all(rows[i][k] for k in range(n) if rows[j][k])


class TestLevelProfile:
    @pytest.mark.parametrize(
        "rho, sizes",
        [
            ((3, 2, 0, 0, 0), (2, 3)),
            ((7, 6, 4, 2, 2, 1, 1, 1, 0), (2, 3, 3, 1)),
            ((2, 1, 0), (1, 1, 1)),
        ],
    )
    def test_examples(self, rho, sizes):
        prof = level_profile(Semiorder(rho))
        assert prof.sizes == sizes
        assert prof.length == len(sizes) - 1

    def test_empty_raises(self):
        with pytest.raises(EmptySemiorderError):
            level_profile(Semiorder(()))

    def test_good_elements(self):
        prof = level_profile(Semiorder((7, 6, 4, 2, 2, 1, 1, 1, 0)))
        assert prof.good_elements == (9,)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sizes_positive_and_sum(self, n):
        for s in enumerate_semiorders(n):
            prof = level_profile(s)
            assert all(size >= 1 for size in prof.sizes)
            assert sum(prof.sizes) == n

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_longest_chain_on_random_vectors(self, seed):
        rng = random.Random(seed)
        s = random_semiorder(rng, rng.randint(1, 80))
        depth = chain_depths(comparability(s).rows)
        prof = level_profile(s)
        assert prof.level_of == tuple(depth)
        assert prof.sizes == tuple(depth.count(lv) for lv in range(1, max(depth) + 1))


def independent_bad_levels(s):
    """Definition-direct recheck through the comparability matrix alone."""
    rows = comparability(s).rows
    n = s.n
    depth = [0] * n
    for j in range(n):  # only smaller indices sit above, so one pass works
        above = [depth[i] for i in range(j) if rows[i][j]]
        depth[j] = 1 + (max(above) if above else 0)
    deepest = max(depth)
    bad = set()
    for j in range(n):
        lv = depth[j]
        above_level = [i for i in range(n) if depth[i] == lv - 1]
        below_level = [i for i in range(n) if depth[i] == lv + 1]
        ok_above = lv == 1 or all(rows[i][j] for i in above_level)
        ok_below = lv == deepest or not any(rows[j][i] for i in below_level)
        if ok_above and ok_below:
            bad.add(lv)
    return bad


def pairwise_bad_elements(s):
    """The element-by-element scan the level-end reads replaced, as a reference."""
    prof = level_profile(s)
    deepest = len(prof.sizes)
    found = {}
    for lv in range(1, deepest + 1):
        for e in reversed(prof.elements_on(lv)):
            below_all_above = lv == 1 or all(s.greater(i, e) for i in prof.elements_on(lv - 1))
            above_none_below = lv == deepest or not any(
                s.greater(e, j) for j in prof.elements_on(lv + 1)
            )
            if below_all_above and above_none_below:
                found[lv] = e
                break
    return found


class TestBadElements:
    def test_antichain(self):
        assert set(bad_elements(Semiorder((0, 0, 0)))) == {1}

    def test_three_chain(self):
        found = bad_elements(Semiorder((2, 1, 0)))
        assert set(found) == {3}
        assert found[3] == 3

    @pytest.mark.parametrize("n", range(1, 9))
    def test_nonempty_nonadjacent_and_definition(self, n):
        for s in enumerate_semiorders(n):
            found = bad_elements(s)
            levels = sorted(found)
            assert levels, s
            assert all(b - a >= 2 for a, b in zip(levels, levels[1:]))
            assert set(levels) == independent_bad_levels(s)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_level_bad_elements_equivalent(self, n):
        for s in enumerate_semiorders(n):
            prof = level_profile(s)
            deepest = len(prof.sizes)
            for lv in bad_elements(s):
                members = [
                    e
                    for e in prof.elements_on(lv)
                    if (lv == 1 or all(s.greater(i, e) for i in prof.elements_on(lv - 1)))
                    and (lv == deepest or not any(s.greater(e, j) for j in prof.elements_on(lv + 1)))
                ]
                for a in members:
                    for b in members:
                        assert up_set(s, a) - {b} == up_set(s, b) - {a}
                        assert down_set(s, a) - {b} == down_set(s, b) - {a}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_pairwise_reference(self, n):
        for s in enumerate_semiorders(n):
            assert bad_elements(s) == pairwise_bad_elements(s)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pairwise_reference_on_random_vectors(self, seed):
        rng = random.Random(seed)
        s = random_semiorder(rng, rng.randint(1, 300))
        assert bad_elements(s) == pairwise_bad_elements(s)


class TestStructuralPropositions:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_level_domination_gap_two(self, n):
        for s in enumerate_semiorders(n):
            prof = level_profile(s)
            deepest = len(prof.sizes)
            for li in range(1, deepest + 1):
                for lj in range(li + 2, deepest + 1):
                    assert all(
                        s.greater(i, j)
                        for i in prof.elements_on(li)
                        for j in prof.elements_on(lj)
                    )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_marker_per_level(self, n):
        for s in enumerate_semiorders(n):
            prof = level_profile(s)
            for lv in range(1, len(prof.sizes)):
                assert any(
                    all(s.greater(i, j) for j in prof.elements_on(lv + 1))
                    for i in prof.elements_on(lv)
                )


class TestSplitJoin:
    def test_nine_element_example(self):
        s1, s3 = split(Semiorder((7, 6, 4, 2, 2, 1, 1, 1, 0)))
        assert s1 == Semiorder((3, 2, 0, 0))
        assert s3 == Semiorder((2, 2, 1, 0))

    def test_join_recovers_nine_element_example(self):
        joined = join(Semiorder((3, 2, 0, 0)), Semiorder((2, 2, 1, 0)))
        assert joined == Semiorder((7, 6, 4, 2, 2, 1, 1, 1, 0))

    def test_single_element(self):
        assert split(Semiorder((0,))) == (Semiorder(()), Semiorder(()))

    def test_join_of_empty_pair(self):
        assert join(Semiorder(()), Semiorder(())) == Semiorder((0,))

    def test_split_empty_raises(self):
        with pytest.raises(EmptySemiorderError):
            split(Semiorder(()))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_roundtrip(self, n):
        for s in enumerate_semiorders(n):
            s1, s3 = split(s)
            assert s1.n + s3.n == n - 1
            assert join(s1, s3) == s
            if s1.n:
                assert level_profile(s1).length <= level_profile(s).length
            if s3.n:
                assert level_profile(s3).length <= level_profile(s).length - 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_total_pair_bijection_is_catalan_convolution(self, n):
        # even without length bounds, join embeds every (t, n-1-t) pair
        # injectively into the n-element semiorders, and split inverts it
        from semiorders.counting import catalan

        images = set()
        for t in range(n):
            for s1 in enumerate_semiorders(t):
                for s3 in enumerate_semiorders(n - 1 - t):
                    s = join(s1, s3)
                    assert split(s) == (s1, s3)
                    images.add(s)
        assert len(images) == catalan(n)

    @pytest.mark.parametrize("h", range(4))
    def test_pair_counts_match_convolution(self, h):
        # join is a bijection from pairs (length <= h, length <= h-1) onto
        # length <= h semiorders, refining the convolution recurrence
        by_size = {
            n: [
                s
                for s in enumerate_semiorders(n)
                if n == 0 or level_profile(s).length <= h
            ]
            for n in range(8)
        }
        by_size_shallow = {
            n: [
                s
                for s in enumerate_semiorders(n)
                if n == 0 or level_profile(s).length <= h - 1
            ]
            for n in range(8)
        }
        for n in range(1, 8):
            images = set()
            for t in range(n):
                for s1 in by_size[t]:
                    for s3 in by_size_shallow[n - 1 - t]:
                        s = join(s1, s3)
                        assert s.n == n
                        assert level_profile(s).length <= h
                        assert split(s) == (s1, s3)
                        images.add(s)
            assert len(images) == count_leq(n, h)

    @pytest.mark.parametrize("seed", range(20))
    def test_split_matches_matrix_reference(self, seed):
        rng = random.Random(seed)
        s = random_semiorder(rng, rng.randint(1, 80))
        assert split(s) == matrix_split(s)

    @pytest.mark.parametrize("seed", range(20))
    def test_join_matches_matrix_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 80)
        t = rng.randint(0, n)
        s1, s3 = random_semiorder(rng, t), random_semiorder(rng, n - t)
        assert join(s1, s3) == matrix_join(s1, s3)

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip_on_large_random_vectors(self, seed):
        rng = random.Random(seed)
        s = random_semiorder(rng, rng.randint(100, 300))
        assert join(*split(s)) == s


def pairwise_equivalence_classes(s):
    """Up-set by up-set comparison of neighbours, as the run reads replaced it."""
    classes = []
    start = 1
    for e in range(2, s.n + 1):
        if s.rho[e - 1] != s.rho[start - 1] or up_set(s, e) != up_set(s, start):
            classes.append(range(start, e))
            start = e
    classes.append(range(start, s.n + 1))
    return classes


def pairwise_contraction(s):
    classes = pairwise_equivalence_classes(s)
    reps = [c[0] for c in classes]
    seed_rho = tuple(sum(1 for other in reps if s.greater(rep, other)) for rep in reps)
    return Semiorder(seed_rho), tuple(len(c) for c in classes)


def pairwise_expansion(seed, mults):
    counts = []
    for i in range(1, seed.n + 1):
        below = sum(mults[j - 1] for j in range(1, seed.n + 1) if seed.greater(i, j))
        counts.extend([below] * mults[i - 1])
    return Semiorder.from_counts(counts)


class TestContraction:
    def test_antichain(self):
        seed, mult = contraction(Semiorder((0, 0, 0)))
        assert seed == Semiorder((0,)) and mult == (3,)

    def test_expanded_example(self):
        seed, mult = contraction(Semiorder((3, 3, 2, 2, 2, 0, 0, 0)))
        assert seed == Semiorder((2, 1, 0, 0))
        assert mult == (2, 3, 1, 2)

    def test_chain_is_rigid_seed(self):
        seed, mult = contraction(Semiorder((2, 1, 0)))
        assert seed == Semiorder((2, 1, 0)) and mult == (1, 1, 1)

    def test_empty_raises(self):
        with pytest.raises(EmptySemiorderError):
            contraction(Semiorder(()))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_expansion_inverts(self, n):
        for s in enumerate_semiorders(n):
            seed, mult = contraction(s)
            assert sum(mult) == n
            assert expansion(seed, mult) == s
            assert contraction(seed) == (seed, (1,) * seed.n)

    def test_expansion_rejects_bad_multiplicities(self):
        with pytest.raises(ValueError):
            expansion(Semiorder((1, 0)), (1,))
        with pytest.raises(ValueError):
            expansion(Semiorder((1, 0)), (1, 0))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_pairwise_reference(self, n):
        rng = random.Random(n)
        for s in enumerate_semiorders(n):
            assert equivalence_classes(s) == pairwise_equivalence_classes(s)
            assert contraction(s) == pairwise_contraction(s)
            mults = [rng.randint(1, 3) for _ in range(n)]
            assert expansion(s, mults) == pairwise_expansion(s, mults)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pairwise_reference_on_random_vectors(self, seed):
        rng = random.Random(seed)
        s = random_semiorder(rng, rng.randint(1, 300))
        assert equivalence_classes(s) == pairwise_equivalence_classes(s)
        assert contraction(s) == pairwise_contraction(s)
        mults = [rng.randint(1, 3) for _ in range(s.n)]
        assert expansion(s, mults) == pairwise_expansion(s, mults)


class TestRightmostConsistency:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_count_order_matches_index_order(self, n):
        # "to the right" by (more above, fewer below) never contradicts
        # the canonical index order on any level
        for s in enumerate_semiorders(n):
            prof = level_profile(s)
            for lv in range(1, len(prof.sizes) + 1):
                block = list(prof.elements_on(lv))
                keys = [(len(up_set(s, e)), -len(down_set(s, e))) for e in block]
                assert keys == sorted(keys)


class TestMatrixCanonicalization:
    def test_rejects_two_plus_two(self):
        rows = [
            [False, True, False, False],
            [False] * 4,
            [False, False, False, True],
            [False] * 4,
        ]
        with pytest.raises(ValueError):
            semiorder_from_matrix(rows)

    @pytest.mark.parametrize("n", range(7))
    def test_identity_on_canonical_matrices(self, n):
        for s in enumerate_semiorders(n):
            assert semiorder_from_matrix(comparability(s).rows) == s

    def test_induced_subsemiorder(self):
        s = Semiorder((7, 6, 4, 2, 2, 1, 1, 1, 0))
        assert induced(s, [1, 3, 6, 7]) == Semiorder((3, 2, 0, 0))
        assert induced(s, range(1, 10)) == s

    @pytest.mark.parametrize("seed", range(20))
    def test_induced_matches_submatrix(self, seed):
        rng = random.Random(seed)
        s = random_semiorder(rng, rng.randint(1, 80))
        chosen = sorted(rng.sample(range(1, s.n + 1), rng.randint(0, s.n)))
        reference = semiorder_from_matrix(submatrix(comparability(s).rows, chosen))
        assert induced(s, reversed(chosen)) == reference
