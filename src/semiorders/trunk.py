"""Trunk trees over length-<=1 semiorders and the right-to-left-minima
bijection with Dyck-path peaks.

Linearly ordering the m upper elements of a length-<=1 semiorder by a
permutation turns it into a tree: the ordered upper elements form the main
trunk and each lower element hangs as a leaf off the lowest trunk element
it lies below.  The tree shape only depends on the positions and values of
the permutation's right-to-left minima; those pair sets biject with Dyck
paths of semilength m keyed by their peaks, Narayana-many for each fixed
number of minima.  When the upper entries of the vector are pairwise
distinct, the number of distinct tree shapes over all m! permutations is
the Catalan number C_m.

Shapes come straight from the upper entries r_1 >= ... >= r_m: position p
carries phi(p) - phi(p+1) leaves, phi(p) = r_{w(p)}, w(p) = min sigma(p..m),
phi(m+1) = 0.  The w are the nondecreasing sequences with w(1) = 1, w(p) <= p,
so the shapes match the nonincreasing phi with phi(1) = r_1, phi(p) in
{r_1..r_p} one to one.  Listing: O(m) per shape, streamed; counting: O(m^2).
"""

from __future__ import annotations

import math
import warnings
from contextlib import suppress
from itertools import accumulate, pairwise
from operator import sub

from . import _ints
from .core import Frozen, LengthTooLargeError, Semiorder
from .trees import DyckPath, MalformedDyckWordError


class NotAPermutationError(ValueError):
    """Input is not a permutation of 1..m."""


class InvalidRtlmSetError(ValueError):
    """Pairs cannot be the right-to-left minima of any permutation."""


class HypothesisViolatedWarning(UserWarning):
    """Upper entries are not pairwise distinct; the Catalan-count guarantee
    does not apply, though the distinct-tree count is still computed."""


class TrunkTree(Frozen):
    """Canonical shape of a trunk tree: leaves per trunk position, top down."""

    __slots__ = ("leaf_counts",)

    @property
    def trunk_length(self) -> int:
        return len(self.leaf_counts)

    @property
    def total_leaves(self) -> int:
        return sum(self.leaf_counts)


def _check_permutation(sigma) -> tuple[int, ...]:
    perm = tuple(int(v) for v in sigma)
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise NotAPermutationError(f"{perm} is not a permutation of 1..{len(perm)}")
    return perm


def rtl_minima(sigma) -> tuple[tuple[int, int], ...]:
    """(position, value) pairs of entries smaller than everything to their
    right, in increasing position order."""
    perm = _check_permutation(sigma)
    out = []
    smallest = len(perm) + 1
    for pos in range(len(perm), 0, -1):
        if perm[pos - 1] < smallest:
            smallest = perm[pos - 1]
            out.append((pos, smallest))
    return tuple(reversed(out))


def upper_count(s: Semiorder) -> int:
    """Number of first-level elements of a length-<=1 semiorder."""
    if s.length > 1:
        raise LengthTooLargeError("trunk trees need length <= 1")
    return s.n - s.rho[0]


def trunk_tree(s: Semiorder, sigma) -> TrunkTree:
    """Build T(s, sigma): trunk in sigma order, lower elements as leaves.

    Lower element i lies below the upper elements 1..t_i (a prefix, since
    the vector is nonincreasing); it attaches to whichever of those sits
    lowest on the trunk.
    """
    m = upper_count(s)
    perm = _check_permutation(sigma)
    if len(perm) != m:
        raise NotAPermutationError(f"permutation must have length {m}")
    position_of = {value: pos for pos, value in enumerate(perm, start=1)}
    leaves = [0] * m
    n = s.n
    for i in range(m + 1, n + 1):
        t_i = sum(1 for j in range(1, m + 1) if s.rho[j - 1] > n - i)
        attach = max(position_of[v] for v in range(1, t_i + 1))
        leaves[attach - 1] += 1
    return TrunkTree(tuple(leaves))


def _upper_entries(s: Semiorder) -> tuple[int, ...]:
    """r_1..r_m, flagged once with HypothesisViolatedWarning if two are equal."""
    m = upper_count(s)
    uppers = s.rho[:m]
    if len(set(uppers)) != m:
        from .counting import catalan  # only this warning needs counting

        warnings.warn(HypothesisViolatedWarning(
            f"upper entries {uppers} are not pairwise distinct; "
            f"the count may fall short of C_{m} = {catalan(m)}"))
    return uppers


def _shapes(s: Semiorder):
    """Leaf counts of {T(s, sigma)} in increasing order, one per phi (module docstring), in O(m)
    memory: the lexicographic successor, candidates largest first, lowers the last phi(p) > r_p."""
    uppers = _upper_entries(s)
    smaller = {r: below for r, below in pairwise(uppers) if below < r}  # the next distinct entry down
    m = len(uppers)
    phi = [uppers[0]] * m + [0]  # phi(m + 1) = 0
    while True:
        yield tuple(map(sub, phi, phi[1:]))
        p = m - 1
        while p and phi[p] == uppers[p]:
            p -= 1
        if not p:
            return
        phi[p:m] = [smaller[phi[p]]] * (m - p)


def count_trunk_trees(s: Semiorder) -> int:
    """Size of {T(s, sigma)}: the phi of `_shapes`, counted in O(m^2)
    additions.  ways[j] counts the prefixes ending at the j-th largest distinct
    value so far; the next row is its prefix sums, padded with a zero at a new
    value.  C_m for pairwise distinct upper entries; otherwise still counted,
    but flagged with HypothesisViolatedWarning."""
    ways = [1]
    for previous, r in pairwise(_upper_entries(s)):
        if r < previous:
            ways.append(0)
        ways = list(accumulate(ways))
    return sum(ways)


def narayana(m: int, k: int) -> int:
    """N(m, k) = binom(m, k) binom(m, k-1) / m: Dyck paths of semilength m
    with k peaks."""
    m, k = _ints("need 1 <= k <= m; got ({!r}, {!r})", m=(m, k), k=(k, 1))  # m >= k >= 1
    return math.comb(m, k) * math.comb(m, k - 1) // m


def rtlm_to_dyck(pairs, m: int) -> DyckPath:
    """Walk the peak coordinates into a Dyck path of semilength m.

    Up a_1, down b_2 - b_1, up a_2 - a_1, ..., closing with m + 1 - b_k
    down steps; the image has exactly one peak per pair.  Right-to-left
    minima sets of permutations of 1..m and Dyck paths of semilength m are in
    bijection through the peaks, so the round trip is a complete validity
    check: valid pairs walk to a Dyck word of semilength m whose peaks read
    back as the pairs, which is their path; no pairs walk to the empty path,
    so they are valid only at m = 0.  Others raise InvalidRtlmSetError.
    """
    _ints("", InvalidRtlmSetError, m=(m, -math.inf))  # not rebound; a negative m fails the walk below
    seq = tuple((int(a), int(b)) for a, b in pairs)
    runs = [(a - prev_a, next_b - b)  # up to peak (a, b), then down to the next peak's value
            for (a, b), (prev_a, _), (_, next_b) in zip(seq, ((0, 0), *seq), (*seq[1:], (0, m + 1)))]
    # the walk's length is summed before it is written, so a huge coordinate costs nothing
    if sum(max(up, 0) + max(down, 0) for up, down in runs) == 2 * m:
        with suppress(MalformedDyckWordError):
            path = DyckPath("".join("U" * up + "D" * down for up, down in runs))
            if dyck_to_rtlm(path) == seq:
                return path
    raise InvalidRtlmSetError(f"{seq} are not the right-to-left minima of a permutation of 1..{m}")


def dyck_to_rtlm(path: DyckPath) -> tuple[tuple[int, int], ...]:
    """Read peak coordinates: the i-th up-step endpoint paired with the
    j-th down-step startpoint wherever a U immediately precedes a D."""
    word = path.word
    out = []
    ups = downs = 0
    for pos, step in enumerate(word):
        if step == "U":
            ups += 1
            if pos + 1 < len(word) and word[pos + 1] == "D":
                out.append((ups, downs + 1))
        else:
            downs += 1
    return tuple(out)
