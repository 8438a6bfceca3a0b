"""Constructive bijection between plane trees and semiorders.

A tree with n+1 nodes and height H+1 corresponds to an n-element semiorder
of length H whose level sizes equal the tree's depth profile.  The vector
is assembled level by level: with x_i nodes at depth i, s^i the per-parent
child counts between depths i-1 and i, and u^i their suffix sums, the
stage vectors are

    R^1 = (0, ..., 0)                                   (x_1 zeros)
    R^{i+1} = (older entries + x_{i+1},
               level-i entries + u^{i+1} componentwise,
               x_{i+1} fresh zeros)

and R^{H+1} is the canonical vector of the image semiorder.  The deepest
x_{H+1} nodes become the good elements.  Both directions read or write
the Dyck word, so trees enter only through the tree/Dyck walk; a separate
two-level arrangement map handles length <= 1 directly.
"""

from __future__ import annotations

from itertools import accumulate, repeat

from . import _ints
from .core import Frozen, LengthTooLargeError, Semiorder, level_profile
from .trees import DyckPath, OrderedTree, dyck_to_tree, tree_to_dyck


class IndexOutOfRangeError(ValueError):
    """An arrangement index falls outside {2, ..., n}."""


class LevelLinkage(Frozen):
    """Depth profile and parent/child link counts of a tree.

    ``sizes[i-1]`` is x_i (nodes at depth i), ``child_counts[i-1]`` is s^i
    (children at depth i per depth-(i-1) node, left to right),
    ``suffix_sums[i-1]`` is u^i with u_j^i = s_j^i + ... + s_last^i, and
    ``cumulative[i-1]`` is y_i = x_1 + ... + x_i.
    """

    __slots__ = ("sizes", "child_counts", "suffix_sums", "cumulative")


def _read_linkage(word: str) -> LevelLinkage:
    """Read x, s, u, y off a Dyck word in one pass.

    The walk meets the nodes of each depth left to right, and a node's
    parent is the last node already met one level up.
    """
    counts = [[0]]  # counts[d]: child counts of the depth-d nodes met so far
    depth = 0
    for step in word:
        if step == "U":
            counts[depth][-1] += 1
            depth += 1
            if depth == len(counts):
                counts.append([])
            counts[depth].append(0)
        else:
            depth -= 1
    child_counts = tuple(tuple(c) for c in counts[:-1])
    sizes = tuple(len(c) for c in counts[1:])
    suffix_sums = tuple(tuple(accumulate(reversed(c)))[::-1] for c in child_counts)
    return LevelLinkage(sizes, child_counts, suffix_sums, tuple(accumulate(sizes)))


def _stage(link: LevelLinkage, depth: int) -> tuple[int, ...]:
    """R^depth entry by entry, as the recurrence leaves it: a node j at depth
    i < depth holds u_j^{i+1} plus the size of depths i+2..depth, and the
    nodes at depth ``depth`` hold 0."""
    y = link.cumulative[depth - 1]
    pairs = zip(link.suffix_sums[1:depth], link.cumulative[1:depth])
    return tuple(u + y - c for us, c in pairs for u in us) + (0,) * link.sizes[depth - 1]


def _write_word(child_counts) -> str:
    """Preorder walk of the tree with these per-depth child counts.

    The walk meets the nodes of each depth left to right, so the node it
    enters at depth d takes the next count of ``child_counts[d]``.
    """
    pending = [iter(c) for c in child_counts] + [repeat(0)]
    steps: list[str] = []
    left = [next(pending[0])]  # children still to enter, per node on the path
    while left:
        if left[-1]:
            left[-1] -= 1
            steps.append("U")
            left.append(next(pending[len(left)]))
        else:
            left.pop()
            steps.append("D")
    steps.pop()  # leaving the root is not a step
    return "".join(steps)


def level_linkage(tree: OrderedTree) -> LevelLinkage:
    """Read x, s, u, y off a tree's Dyck word."""
    return _read_linkage(tree_to_dyck(tree).word)


def construction_stages(tree: OrderedTree) -> tuple[tuple[int, ...], ...]:
    """All intermediate vectors R^1, ..., R^{H+1} for a tree.

    Empty for the single-node tree, which maps to the empty semiorder.
    """
    link = level_linkage(tree)
    return tuple(_stage(link, depth) for depth in range(1, len(link.sizes) + 1))


def tree_to_semiorder(tree: OrderedTree) -> Semiorder:
    """Map an (n+1)-node tree of height H+1 to an n-element length-H semiorder."""
    return dyck_to_semiorder(tree_to_dyck(tree))


def semiorder_to_tree(s: Semiorder) -> OrderedTree:
    """Inverse of tree_to_semiorder, through the Dyck word."""
    return dyck_to_tree(semiorder_to_dyck(s))


def dyck_to_semiorder(path: DyckPath) -> Semiorder:
    """Height-(H+1) Dyck word to length-H semiorder: R^{H+1} of its linkage."""
    link = _read_linkage(path.word)
    return Semiorder(_stage(link, len(link.sizes)) if link.sizes else ())


def semiorder_to_dyck(s: Semiorder) -> DyckPath:
    """Inverse construction: recover the child counts level by level.

    For the j-th element on level i, u_j^{i+1} is its vector entry minus
    the total size of levels i+2 and deeper, and s_j^{i+1} is the drop
    u_j^{i+1} - u_{j+1}^{i+1} (with a trailing zero).  Children attach to
    parents left to right in consecutive runs.
    """
    if s.n == 0:
        return DyckPath("")
    x = level_profile(s).sizes
    child_counts: list[tuple[int, ...]] = [(x[0],)]
    end = 0
    for i in range(1, len(x)):
        start, end = end, end + x[i - 1]
        deeper = s.n - end - x[i]
        u = [r - deeper for r in s.rho[start:end]] + [0]
        drops = tuple(u[j] - u[j + 1] for j in range(len(u) - 1))
        if any(d < 0 for d in drops) or sum(drops) != x[i]:
            raise ValueError("vector does not encode a level-linked tree")
        child_counts.append(drops)
    return DyckPath(_write_word(child_counts))


def arrangement_to_semiorder(n: int, upper) -> Semiorder:
    """Two-level arrangement to a semiorder of length <= 1.

    Element 1 and the elements indexed by ``upper`` (a subset of 2..n) sit
    on the upper level, the rest below; a_i > a_j iff i < j with a_i upper
    and a_j lower.
    """
    _ints("", IndexOutOfRangeError, n=(n, 1))  # not rebound: the error below prints n as given
    chosen = {int(u) for u in upper}
    if any(u < 2 or u > n for u in chosen):
        raise IndexOutOfRangeError(f"upper indices must lie in 2..{n}")
    tops = sorted({1} | chosen)
    # upper index t, the i-th of m, is above the n - t indices past it less m - i upper ones
    counts = [n - t - (len(tops) - i) for i, t in enumerate(tops, start=1)]
    return Semiorder(tuple(counts) + (0,) * (n - len(tops)))


def semiorder_to_arrangement(s: Semiorder) -> frozenset[int]:
    """Recover the upper-level subscripts {t_2, ..., t_m} from the vector.

    With m = n - r_1 upper elements, the i-th of them carries subscript
    t_i = r_1 - r_i + i; t_1 = 1 is implicit and the returned set is the
    arrangement's choice set U within {2, ..., n}.
    """
    if s.n == 0:
        raise IndexOutOfRangeError("need n >= 1")
    if s.length > 1:
        raise LengthTooLargeError("arrangements encode only semiorders of length <= 1")
    r1 = s.rho[0]
    m = s.n - r1
    return frozenset(r1 - s.rho[i - 1] + i for i in range(2, m + 1))
