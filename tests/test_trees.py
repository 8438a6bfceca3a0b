"""Tree/Dyck codecs and the depth-first walk between the two families."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiorders.counting import catalan
from semiorders.trees import (
    DyckPath,
    MalformedDyckWordError,
    OrderedTree,
    TrailingInputError,
    UnbalancedParensError,
    all_dyck_words,
    all_trees,
    dyck_to_tree,
    tree_to_dyck,
)

GRAPH_B = "((())(()()))"  # root -> [A -> [B], C -> [leaf, leaf]]

small_trees = st.recursive(
    st.just(OrderedTree()),
    lambda inner: st.lists(inner, max_size=4).map(lambda kids: OrderedTree(tuple(kids))),
    max_leaves=12,
)


class TestTreeCodec:
    def test_six_node_example(self):
        tree = OrderedTree.from_text(GRAPH_B)
        assert tree.node_count == 6
        assert tree.height == 2
        assert tree.to_text() == GRAPH_B

    def test_single_node(self):
        assert OrderedTree.from_text("()") == OrderedTree()
        assert OrderedTree().to_text() == "()"

    @pytest.mark.parametrize(
        "text, position",
        [("", 0), (")(", 0), ("(()", 3), ("((x))", 2)],
    )
    def test_unbalanced(self, text, position):
        with pytest.raises(UnbalancedParensError) as err:
            OrderedTree.from_text(text)
        assert err.value.position == position

    def test_trailing_input(self):
        with pytest.raises(TrailingInputError) as err:
            OrderedTree.from_text("(())()")
        assert err.value.position == 4

    @pytest.mark.parametrize("n", range(1, 9))
    def test_roundtrip_exhaustive(self, n):
        for tree in all_trees(n):
            assert OrderedTree.from_text(tree.to_text()) == tree

    @given(small_trees)
    def test_roundtrip_random(self, tree):
        assert OrderedTree.from_text(tree.to_text()) == tree

    @given(st.text(alphabet="()x", max_size=14))
    def test_errors_match_recursive_parser(self, text):
        assert parse_outcome(OrderedTree.from_text, text) == parse_outcome(recursive_from_text, text)

    def test_deep_tree(self):
        text = "(" * 5001 + ")" * 5001
        tree = OrderedTree.from_text(text)
        assert (tree.node_count, tree.height) == (5001, 5000)
        assert tree.to_text() == text

    def test_deep_tree_compares_hashes_and_prints(self):
        tree = OrderedTree.from_text("(" * 5001 + ")" * 5001)
        same = dyck_to_tree(DyckPath("U" * 5000 + "D" * 5000))
        other = OrderedTree.from_text("(" * 5000 + ")()" + ")" * 4999)
        assert tree == same and hash(tree) == hash(same)
        assert tree != other and other.node_count == tree.node_count
        assert eval(repr(tree)) == tree

    def test_repr_is_one_evaluable_line(self):
        tree = OrderedTree.from_text(GRAPH_B)
        assert repr(tree) == "OrderedTree.from_text('((())(()()))')"
        assert eval(repr(tree)) == tree

    @given(small_trees)
    def test_equal_trees_hash_equal(self, tree):
        copy = dyck_to_tree(tree_to_dyck(tree))
        assert copy is not tree
        assert copy == tree and hash(copy) == hash(tree)
        assert eval(repr(tree)) == tree

    @pytest.mark.parametrize("n", range(1, 8))
    def test_distinct_shapes_compare_unequal(self, n):
        shapes = list(all_trees(n))
        assert len(set(shapes)) == len(shapes) == catalan(n - 1)
        assert all(a != b for a, b in zip(shapes, shapes[1:]))


def reference_trees(node_count):
    """The head-tree, tail-forest recursion all_trees ran before it read Dyck words."""
    if node_count >= 1:
        for forest in reference_forests(node_count - 1):
            yield OrderedTree(forest)


def reference_forests(total):
    if total == 0:
        yield ()
        return
    for head_size in range(1, total + 1):
        for head in reference_trees(head_size):
            for tail in reference_forests(total - head_size):
                yield (head,) + tail


class TestAllTreesFromDyckWords:
    @pytest.mark.parametrize("n", range(12))
    def test_same_trees_in_the_same_order(self, n):
        trees = list(all_trees(n))
        assert trees == list(reference_trees(n))
        assert len(trees) == (catalan(n - 1) if n >= 1 else 0)


def recursive_text(tree):
    return "(" + "".join(recursive_text(child) for child in tree.children) + ")"


def recursive_height(tree):
    return max((1 + recursive_height(child) for child in tree.children), default=0)


class TestReadsMatchTheDyckRoute:
    """Text, ==, hash, node count and height read the walk's word without
    a DyckPath; they agree with the DyckPath route and with recursion."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_all_trees(self, n):
        trees = list(all_trees(n))
        paths = [tree_to_dyck(tree) for tree in trees]
        for tree, path in zip(trees, paths):
            text = "(" + path.word.replace("U", "(").replace("D", ")") + ")"
            assert tree.to_text() == text == recursive_text(tree)
            assert tree.node_count == 1 + path.semilength == text.count("(")
            assert tree.height == path.height == recursive_height(tree)
            same = dyck_to_tree(path)
            assert same == tree and hash(same) == hash(tree)
        others = trees[1:] + trees[:1]
        for tree, other, path, other_path in zip(trees, others, paths, paths[1:] + paths[:1]):
            assert (tree == other) == (path == other_path) == (len(trees) == 1)
        assert len(set(trees)) == len(trees) == catalan(n - 1)

    def test_depth_5000(self):
        word = "U" * 4000 + "UDUUDD" * 3 + "U" * 1000 + "D" * 5000 + "UD" * 7
        path = DyckPath(word)
        tree = dyck_to_tree(path)
        assert tree.to_text() == "(" + word.replace("U", "(").replace("D", ")") + ")"
        assert (tree.node_count, tree.height) == (1 + path.semilength, path.height) == (5017, 5000)
        same = dyck_to_tree(DyckPath(word))
        assert same == tree and hash(same) == hash(tree)
        assert tree != dyck_to_tree(DyckPath(word[:-2] + "UUDD"))


def recursive_from_text(text):
    """The recursive-descent parser the depth scan replaced, as a reference."""

    def node(pos):
        if pos >= len(text) or text[pos] != "(":
            raise UnbalancedParensError(pos)
        pos += 1
        children = []
        while pos < len(text) and text[pos] == "(":
            child, pos = node(pos)
            children.append(child)
        if pos >= len(text) or text[pos] != ")":
            raise UnbalancedParensError(pos)
        return OrderedTree(tuple(children)), pos + 1

    tree, end = node(0)
    if end != len(text):
        raise TrailingInputError(end)
    return tree


def parse_outcome(parse, text):
    try:
        return parse(text)
    except (UnbalancedParensError, TrailingInputError) as err:
        return type(err), err.position


class TestDyckPath:
    def test_empty(self):
        path = DyckPath("")
        assert path.semilength == 0 and path.height == 0

    @pytest.mark.parametrize(
        "word, position",
        [("D", 0), ("UDD", 2), ("UU", 2), ("UXD", 1)],
    )
    def test_malformed(self, word, position):
        with pytest.raises(MalformedDyckWordError) as err:
            DyckPath(word)
        assert err.value.position == position

    def test_counts(self):
        words = list(all_dyck_words(5))
        assert len(words) == 42 == catalan(5)
        assert len(set(words)) == 42


class TestWalk:
    def test_six_node_example(self):
        assert tree_to_dyck(OrderedTree.from_text(GRAPH_B)).word == "UUDDUUDUDD"
        assert dyck_to_tree(DyckPath("UUDDUUDUDD")) == OrderedTree.from_text(GRAPH_B)

    def test_single_node(self):
        assert tree_to_dyck(OrderedTree()).word == ""
        assert dyck_to_tree(DyckPath("")) == OrderedTree()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_tree_roundtrip_and_stats(self, n):
        for tree in all_trees(n):
            path = tree_to_dyck(tree)
            assert path.semilength == tree.node_count - 1
            assert path.height == tree.height
            assert dyck_to_tree(path) == tree

    def test_deep_walk(self):
        path = DyckPath("U" * 5000 + "D" * 5000)
        assert tree_to_dyck(dyck_to_tree(path)) == path

    @pytest.mark.parametrize("m", range(10))
    def test_dyck_roundtrip(self, m):
        for path in all_dyck_words(m):
            assert tree_to_dyck(dyck_to_tree(path)) == path

    @pytest.mark.parametrize("n", range(10))
    def test_height_class_counts_agree(self, n):
        trees_by_height = {}
        for tree in all_trees(n + 1):
            trees_by_height[tree.height] = trees_by_height.get(tree.height, 0) + 1
        dyck_by_height = {}
        for path in all_dyck_words(n):
            dyck_by_height[path.height] = dyck_by_height.get(path.height, 0) + 1
        assert trees_by_height == dyck_by_height
