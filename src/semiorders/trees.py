"""Plane (ordered) trees, Dyck words, and the depth-first walk between them.

Trees serialize to balanced parentheses, one ``( ... )`` pair per node with
the root included; Dyck words are ASCII strings over ``U``/``D``.  The walk
visits children left to right, emitting U on entering a child and D on
leaving it, so a tree with n+1 nodes and height H maps to a word of
semilength n and height H.  A tree's text is that word, ``(``/``)`` for
``U``/``D``, inside the root's pair; only the two walks visit children.
"""

from __future__ import annotations

from dataclasses import dataclass


class UnbalancedParensError(ValueError):
    def __init__(self, position: int):
        super().__init__(f"unbalanced parentheses at position {position}")
        self.position = position


class TrailingInputError(ValueError):
    def __init__(self, position: int):
        super().__init__(f"trailing input after the root subtree at position {position}")
        self.position = position


class MalformedDyckWordError(ValueError):
    def __init__(self, position: int):
        super().__init__(f"malformed Dyck word at position {position}")
        self.position = position


@dataclass(frozen=True, eq=False, repr=False)
class OrderedTree:
    """A rooted tree whose children carry a left-to-right order; it compares,
    hashes and prints through its Dyck word, so none of the three recurses."""

    children: tuple["OrderedTree", ...] = ()

    def __eq__(self, other):
        if not isinstance(other, OrderedTree):
            return NotImplemented
        return tree_to_dyck(self).word == tree_to_dyck(other).word

    def __hash__(self):
        return hash(tree_to_dyck(self).word)

    def __repr__(self) -> str:
        return f"OrderedTree.from_text({self.to_text()!r})"

    @property
    def node_count(self) -> int:
        return 1 + tree_to_dyck(self).semilength

    @property
    def height(self) -> int:
        """Maximum edge-depth; 0 for a single node."""
        return tree_to_dyck(self).height

    @classmethod
    def from_text(cls, text: str) -> "OrderedTree":
        """Parse the root's pair of parentheses around the tree's Dyck word."""
        depth = 0
        for pos, char in enumerate(text):
            depth += 1 if char == "(" else -1
            if depth < 0 or char not in "()":
                raise UnbalancedParensError(pos)
            if depth == 0:
                break
        else:
            raise UnbalancedParensError(len(text))
        if pos + 1 != len(text):
            raise TrailingInputError(pos + 1)
        return dyck_to_tree(DyckPath(text[1:pos].translate(_FROM_PARENS)))

    def to_text(self) -> str:
        return "(" + tree_to_dyck(self).word.translate(_TO_PARENS) + ")"

    def __str__(self) -> str:
        return self.to_text()


_FROM_PARENS = str.maketrans("()", "UD")
_TO_PARENS = str.maketrans("UD", "()")


@dataclass(frozen=True)
class DyckPath:
    """A word over {U, D} with balanced counts and nonnegative prefixes."""

    word: str = ""

    def __post_init__(self):
        altitude = 0
        for pos, step in enumerate(self.word):
            if step == "U":
                altitude += 1
            elif step == "D":
                altitude -= 1
                if altitude < 0:
                    raise MalformedDyckWordError(pos)
            else:
                raise MalformedDyckWordError(pos)
        if altitude != 0:
            raise MalformedDyckWordError(len(self.word))

    @property
    def semilength(self) -> int:
        return len(self.word) // 2

    @property
    def height(self) -> int:
        altitude = best = 0
        for step in self.word:
            altitude += 1 if step == "U" else -1
            if altitude > best:
                best = altitude
        return best

    @classmethod
    def from_text(cls, text: str) -> "DyckPath":
        return cls(text)

    def to_text(self) -> str:
        return self.word

    def __str__(self) -> str:
        return self.word


def tree_to_dyck(tree: OrderedTree) -> DyckPath:
    """Preorder walk: U entering each child, D leaving it."""
    steps: list[str] = []
    stack = [iter(tree.children)]
    while stack:
        for child in stack[-1]:  # the next child not yet entered, if any
            steps.append("U")
            stack.append(iter(child.children))
            break
        else:
            stack.pop()
            steps.append("D")
    steps.pop()  # leaving the root is not a step
    return DyckPath("".join(steps))


def dyck_to_tree(path: DyckPath) -> OrderedTree:
    """Inverse walk of a word DyckPath has checked; a node freezes on its D step."""
    stack: list[list[OrderedTree]] = [[]]
    for step in path.word:
        if step == "U":
            stack.append([])
        else:
            node = OrderedTree(tuple(stack.pop()))
            stack[-1].append(node)
    return OrderedTree(tuple(stack[0]))


def all_trees(node_count: int):
    """Yield every plane tree with the given node count, in a fixed order."""
    if node_count >= 1:
        for forest in _all_forests(node_count - 1):
            yield OrderedTree(forest)


def _all_forests(total: int):
    if total == 0:
        yield ()
        return
    for head_size in range(1, total + 1):
        for head in all_trees(head_size):
            for tail in _all_forests(total - head_size):
                yield (head,) + tail


def all_dyck_words(semilength: int):
    """Yield every Dyck word of the given semilength (w = U w1 D w2)."""
    if semilength == 0:
        yield DyckPath("")
        return
    for k in range(semilength):
        for first in all_dyck_words(k):
            for rest in all_dyck_words(semilength - 1 - k):
                yield DyckPath("U" + first.word + "D" + rest.word)
