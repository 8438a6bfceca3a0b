"""Plane (ordered) trees, Dyck words, and the depth-first walk between them.

Trees serialize to balanced parentheses, one ``( ... )`` pair per node with
the root included; Dyck words are ASCII strings over ``U``/``D``.  The walk
visits children left to right, emitting U on entering a child and D on
leaving it, so a tree with n+1 nodes and height H maps to a word of
semilength n and height H.  A tree's text is that word, ``(``/``)`` for
``U``/``D``, inside the root's pair; only the two walks visit children.
Every tree the package builds comes from a Dyck word through ``dyck_to_tree``.
"""

from __future__ import annotations

from . import _ints
from .core import Frozen


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


def _walk(tree: OrderedTree) -> str:
    """Preorder walk: U entering each child, D leaving it; a Dyck word by construction."""
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
    return "".join(steps)


class OrderedTree(Frozen):
    """A rooted tree whose children carry a left-to-right order; it compares,
    hashes and prints through its Dyck word, so none of the three recurses."""

    __slots__ = ("children",)

    def __init__(self, children: tuple["OrderedTree", ...] = ()):
        object.__setattr__(self, "children", children)

    _key = _walk

    def __repr__(self) -> str:
        return f"OrderedTree.from_text({self.to_text()!r})"

    @property
    def node_count(self) -> int:
        return 1 + len(_walk(self)) // 2

    @property
    def height(self) -> int:
        """Maximum edge-depth; 0 for a single node."""
        return _height(_walk(self))

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
        return "(" + _walk(self).translate(_TO_PARENS) + ")"

    __str__ = to_text


_FROM_PARENS = str.maketrans("()", "UD")
_TO_PARENS = str.maketrans("UD", "()")


class DyckPath(Frozen):
    """A word over {U, D} with balanced counts and nonnegative prefixes."""

    __slots__ = ("word",)

    def __init__(self, word: str = ""):
        object.__setattr__(self, "word", word)
        altitude = 0
        for pos, step in enumerate(word):
            if step == "U":
                altitude += 1
            elif step == "D":
                altitude -= 1
                if altitude < 0:
                    raise MalformedDyckWordError(pos)
            else:
                raise MalformedDyckWordError(pos)
        if altitude != 0:
            raise MalformedDyckWordError(len(word))

    @property
    def semilength(self) -> int:
        return len(self.word) // 2

    @property
    def height(self) -> int:
        return _height(self.word)

    @classmethod
    def from_text(cls, text: str) -> "DyckPath":
        return cls(text)

    def to_text(self) -> str:
        return self.word

    __str__ = to_text


def _height(word: str) -> int:
    altitude = best = 0
    for step in word:
        altitude += 1 if step == "U" else -1
        if altitude > best:
            best = altitude
    return best


def tree_to_dyck(tree: OrderedTree) -> DyckPath:
    """The tree's Dyck word, checked as every DyckPath is."""
    return DyckPath(_walk(tree))


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
    """Yield every plane tree with the given node count: the tree of each word of all_dyck_words."""
    [node_count] = _ints(node_count=(node_count, 0))
    if node_count >= 1:
        yield from map(dyck_to_tree, map(DyckPath, _dyck_words(node_count - 1)))


def all_dyck_words(semilength: int):
    """Yield every Dyck word of the given semilength (w = U w1 D w2)."""
    [semilength] = _ints(semilength=(semilength, 0))
    yield from map(DyckPath, _dyck_words(semilength))


def _dyck_words(semilength: int):
    """The words of all_dyck_words as strings, past the gate, which the recursive calls do not repeat."""
    if semilength == 0:
        yield ""
        return
    for k in range(semilength):
        for first in _dyck_words(k):
            for rest in _dyck_words(semilength - 1 - k):
                yield "U" + first + "D" + rest
