"""The tree <-> semiorder construction, its Dyck transport, and the
two-level arrangement map."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiorders.bijection import (
    IndexOutOfRangeError,
    LevelLinkage,
    arrangement_to_semiorder,
    construction_stages,
    dyck_to_semiorder,
    level_linkage,
    semiorder_to_arrangement,
    semiorder_to_dyck,
    semiorder_to_tree,
    tree_to_semiorder,
)
from semiorders.core import LengthTooLargeError, Semiorder, level_profile
from semiorders.counting import catalan
from semiorders.oracle import enumerate_semiorders
from semiorders.trees import DyckPath, OrderedTree, all_dyck_words, all_trees

TEN_NODE_TREE = "(((()()))(()((()))))"

random_trees = st.recursive(
    st.just(OrderedTree()),
    lambda inner: st.lists(inner, max_size=4).map(lambda kids: OrderedTree(tuple(kids))),
    max_leaves=30,
)


@st.composite
def semiorder_vectors(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    rho = []
    ceiling = n
    for i in range(1, n + 1):
        r = draw(st.integers(0, min(ceiling, n - i)))
        rho.append(r)
        ceiling = r
    return Semiorder(tuple(rho))


class TestWorkedExample:
    def test_linkage(self):
        link = level_linkage(OrderedTree.from_text(TEN_NODE_TREE))
        assert link.sizes == (2, 3, 3, 1)
        assert link.child_counts == ((2,), (1, 2), (2, 0, 1), (0, 0, 1))
        assert link.suffix_sums == ((2,), (3, 2), (3, 1, 1), (1, 1, 1))
        assert link.cumulative == (2, 5, 8, 9)

    def test_stages(self):
        stages = construction_stages(OrderedTree.from_text(TEN_NODE_TREE))
        assert stages == (
            (0, 0),
            (3, 2, 0, 0, 0),
            (6, 5, 3, 1, 1, 0, 0, 0),
            (7, 6, 4, 2, 2, 1, 1, 1, 0),
        )

    def test_forward_and_back(self):
        tree = OrderedTree.from_text(TEN_NODE_TREE)
        s = tree_to_semiorder(tree)
        assert s == Semiorder((7, 6, 4, 2, 2, 1, 1, 1, 0))
        assert semiorder_to_tree(s) == tree


class TestLinkageInvariants:
    @pytest.mark.parametrize("nodes", range(2, 9))
    def test_shape(self, nodes):
        for tree in all_trees(nodes):
            link = level_linkage(tree)
            depth_count = len(link.sizes)
            assert link.cumulative[-1] == nodes - 1
            for i in range(depth_count):
                parents = 1 if i == 0 else link.sizes[i - 1]
                assert len(link.child_counts[i]) == parents
                assert sum(link.child_counts[i]) == link.sizes[i]
                u = link.suffix_sums[i]
                assert u[0] == link.sizes[i]
                assert all(a >= b for a, b in zip(u, u[1:]))

    @given(random_trees)
    def test_matches_breadth_first_reference(self, tree):
        link = level_linkage(tree)
        assert link == breadth_first_linkage(tree)
        assert construction_stages(tree) == recurrence_stages(link)


def breadth_first_linkage(tree):
    """Linkage read generation by generation off the tree objects."""
    generations = []
    current = [tree]
    while True:
        nxt = [child for node in current for child in node.children]
        if not nxt:
            break
        generations.append(nxt)
        current = nxt
    sizes = tuple(len(g) for g in generations)
    parents = [[tree]] + generations[:-1]
    child_counts = tuple(
        tuple(len(p.children) for p in parents[i]) for i in range(len(generations))
    )
    suffix_sums = tuple(
        tuple(sum(counts[j:]) for j in range(len(counts))) for counts in child_counts
    )
    cumulative = tuple(sum(sizes[: i + 1]) for i in range(len(sizes)))
    return LevelLinkage(sizes, child_counts, suffix_sums, cumulative)


def recurrence_stages(link):
    """R^1..R^{H+1} by the paper's level-by-level recurrence."""
    if not link.sizes:
        return ()
    r = [0] * link.sizes[0]
    stages = [tuple(r)]
    for i in range(1, len(link.sizes)):
        base = len(r) - link.sizes[i - 1]
        r = (
            [v + link.sizes[i] for v in r[:base]]
            + [r[base + j] + u for j, u in enumerate(link.suffix_sums[i])]
            + [0] * link.sizes[i]
        )
        stages.append(tuple(r))
    return tuple(stages)


class TestDegenerateShapes:
    def test_single_node_maps_to_empty(self):
        assert tree_to_semiorder(OrderedTree()) == Semiorder(())
        assert semiorder_to_tree(Semiorder(())) == OrderedTree()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_star_tree_is_antichain(self, n):
        star = OrderedTree((OrderedTree(),) * n)
        assert tree_to_semiorder(star) == Semiorder((0,) * n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_path_tree_is_chain(self, n):
        path = OrderedTree()
        for _ in range(n):
            path = OrderedTree((path,))
        chain = Semiorder(tuple(range(n - 1, -1, -1)))
        assert tree_to_semiorder(path) == chain
        # the chain is the unique semiorder of length n - 1 on n elements
        deepest = [s for s in enumerate_semiorders(n) if level_profile(s).length == n - 1]
        assert deepest == [chain]


class TestExhaustiveRoundtrip:
    @pytest.mark.parametrize("nodes", range(2, 10))
    def test_trees_to_semiorders(self, nodes):
        images = {}
        for tree in all_trees(nodes):
            s = tree_to_semiorder(tree)
            prof = level_profile(s)
            link = level_linkage(tree)
            assert s.n == nodes - 1
            assert prof.length + 1 == tree.height
            assert prof.sizes == link.sizes
            assert len(prof.good_elements) == link.sizes[-1]
            assert s not in images
            images[s] = tree
            assert semiorder_to_tree(s) == tree
        assert len(images) == catalan(nodes - 1)

    @pytest.mark.parametrize("n", range(8))
    def test_semiorders_to_trees(self, n):
        for s in enumerate_semiorders(n):
            assert tree_to_semiorder(semiorder_to_tree(s)) == s

    @given(semiorder_vectors())
    def test_random_vectors_roundtrip(self, s):
        tree = semiorder_to_tree(s)
        assert tree.node_count == s.n + 1
        assert tree_to_semiorder(tree) == s


class TestDyckTransport:
    def test_five_element_example(self):
        s = dyck_to_semiorder(DyckPath("UUDDUUDUDD"))
        assert s == Semiorder((3, 2, 0, 0, 0))
        assert level_profile(s).length == 1
        assert semiorder_to_dyck(s).word == "UUDDUUDUDD"

    def test_empty_word(self):
        assert dyck_to_semiorder(DyckPath("")) == Semiorder(())

    @pytest.mark.parametrize("n", range(1, 9))
    def test_class_counts(self, n):
        by_height = {}
        for path in all_dyck_words(n):
            by_height[path.height] = by_height.get(path.height, 0) + 1
        by_length = {}
        for s in enumerate_semiorders(n):
            if s.n == 0:
                continue
            key = level_profile(s).length + 1
            by_length[key] = by_length.get(key, 0) + 1
        assert by_height == by_length


class TestArrangements:
    def test_ten_element_example(self):
        s = arrangement_to_semiorder(10, {2, 5, 9})
        assert s == Semiorder((6, 6, 4, 1, 0, 0, 0, 0, 0, 0))
        assert semiorder_to_arrangement(s) == frozenset({2, 5, 9})

    def test_empty_choice_tops_one_element(self):
        assert arrangement_to_semiorder(4, ()) == Semiorder((3, 0, 0, 0))

    def test_all_upper_is_antichain(self):
        assert arrangement_to_semiorder(4, {2, 3, 4}) == Semiorder((0, 0, 0, 0))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            arrangement_to_semiorder(4, {5})
        with pytest.raises(IndexOutOfRangeError):
            arrangement_to_semiorder(4, {1})
        with pytest.raises(IndexOutOfRangeError):
            arrangement_to_semiorder(0, ())

    def test_too_long_rejected(self):
        with pytest.raises(LengthTooLargeError):
            semiorder_to_arrangement(Semiorder((2, 1, 0)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_bijection_onto_short_semiorders(self, n):
        from itertools import combinations

        images = set()
        pool = list(range(2, n + 1))
        for size in range(len(pool) + 1):
            for chosen in combinations(pool, size):
                s = arrangement_to_semiorder(n, chosen)
                assert level_profile(s).length <= 1
                assert semiorder_to_arrangement(s) == frozenset(chosen)
                images.add(s)
        assert len(images) == 2 ** (n - 1)
        if n <= 9:
            short = {
                s for s in enumerate_semiorders(n) if level_profile(s).length <= 1
            }
            assert images == short
