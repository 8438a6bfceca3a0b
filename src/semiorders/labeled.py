"""Labeled semiorder counts and the ordered-set-partition bijection.

Labeled counts come from the unlabeled ordinary generating functions by
substituting 1 - e^(-x), carried out exactly on truncated series through

    n! [x^n] (1 - e^(-x))^k  =  (-1)^(n-k) * k! * S(n, k)

with S the Stirling numbers of the second kind.  A labeled semiorder is
stored as its contraction seed plus the ordered label blocks of the
equivalence classes; seeds of semiorders are rigid, so within-class label
choices never matter and this form is canonical.  For length <= 1 the
labeled objects biject with ordered set partitions, whose blocks map in
order onto the classes of the staircase seed (m, m-1, ..., 1, 0, ..., 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .core import LengthTooLargeError, Semiorder, expansion, semiorder_from_matrix
from .counting import InvalidParametersError, series_exact, series_leq


class InvalidPartitionError(ValueError):
    """Blocks are not disjoint nonempty sets covering 1..n."""


def stirling2_table(max_n: int) -> list[list[int]]:
    """S(n, k) for 0 <= k <= n <= max_n; S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    if max_n < 0:
        raise InvalidParametersError("need max_n >= 0")
    table = [[1]]
    for n in range(1, max_n + 1):
        row = [0] * (n + 1)
        prev = table[n - 1]
        for k in range(1, n + 1):
            row[k] = k * prev[k] if k < n else 0
            row[k] += prev[k - 1]
        table.append(row)
    return table


def substitute_one_minus_exp(coefficients, order: int | None = None) -> tuple[int, ...]:
    """Exponential coefficients of F(1 - e^(-x)) from ordinary ones of F.

    Entry n of the result is n! [x^n] F(1 - e^(-x)) =
    sum_k f_k (-1)^(n-k) k! S(n, k), an exact integer.
    """
    coeffs = tuple(coefficients)
    if order is None:
        order = len(coeffs) - 1
    if order >= len(coeffs):
        raise InvalidParametersError("input series is too short for the requested order")
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


def count_labeled_leq(n: int, h: int) -> int:
    """Labeled n-element semiorders of length at most h."""
    if n < 0 or h < 0:
        raise InvalidParametersError("need n >= 0 and h >= 0")
    return substitute_one_minus_exp(series_leq(h, n))[n]


def count_labeled_exact(n: int, h: int) -> int:
    """Labeled n-element semiorders of length exactly h (0 at n = 0)."""
    if n < 0 or h < 0:
        raise InvalidParametersError("need n >= 0 and h >= 0")
    return substitute_one_minus_exp(series_exact(h, n))[n]


def ordered_bell(n: int) -> int:
    """Fubini numbers via a(n) = sum_k binom(n, k) a(n-k); independent of series."""
    if n < 0:
        raise InvalidParametersError("need n >= 0")
    values = [1]
    for m in range(1, n + 1):
        values.append(sum(math.comb(m, k) * values[m - k] for k in range(1, m + 1)))
    return values[n]


def _checked_blocks(blocks) -> tuple[tuple[int, ...], ...]:
    """Sort each block, and check that the blocks partition 1..n."""
    blocks = tuple(tuple(sorted(int(x) for x in b)) for b in blocks)
    labels = [x for b in blocks for x in b]
    if not all(blocks):
        raise InvalidPartitionError("blocks must be nonempty")
    if set(labels) != set(range(1, len(labels) + 1)):  # n distinct labels: none repeats
        raise InvalidPartitionError("blocks must be disjoint and cover 1..n without gaps")
    return blocks


@dataclass(frozen=True)
class OrderedSetPartition:
    """Linearly ordered disjoint nonempty blocks covering {1, ..., n}."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", _checked_blocks(self.blocks))

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @classmethod
    def from_text(cls, text: str) -> "OrderedSetPartition":
        """Parse e.g. ``{1,4}{2,6,8}{7}{3,5}``."""
        if text == "":
            return cls(())
        if not text.startswith("{") or not text.endswith("}"):
            raise InvalidPartitionError("partition text must be brace-delimited blocks")
        body = text[1:-1].split("}{")
        try:
            blocks = tuple(tuple(int(v) for v in part.split(",")) for part in body)
        except ValueError as exc:
            raise InvalidPartitionError(f"bad block contents: {exc}") from exc
        return cls(blocks)

    def to_text(self) -> str:
        return "".join("{" + ",".join(str(v) for v in b) + "}" for b in self.blocks)

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class LabeledSemiorder:
    """A labeled semiorder as (contraction seed, ordered label blocks).

    ``blocks[i-1]`` holds the labels of the equivalence class expanding
    seed element i.  Together the blocks partition {1, ..., n}; labelings
    that differ only within a class are the same object.
    """

    seed: Semiorder
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", _checked_blocks(self.blocks))
        if len(self.blocks) != self.seed.n:
            raise InvalidPartitionError("need exactly one label block per seed element")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def underlying(self) -> Semiorder:
        """The unlabeled semiorder obtained by expanding the seed."""
        return expansion(self.seed, self.multiplicities)


def staircase_seed(k: int) -> Semiorder:
    """The unique k-element length-<=1 seed: (m, m-1, ..., 1, 0, ..., 0)
    with m = floor(k/2) and ceil(k/2) zeros."""
    if k < 1:
        raise InvalidParametersError("need k >= 1")
    m = k // 2
    return Semiorder(tuple(range(m, 0, -1)) + (0,) * (k - m))


def partition_to_labeled_semiorder(partition: OrderedSetPartition) -> LabeledSemiorder:
    """Block i of the partition labels class i of the staircase seed."""
    if not partition.blocks:
        raise InvalidPartitionError("need at least one block")
    return LabeledSemiorder(staircase_seed(len(partition.blocks)), partition.blocks)


def labeled_semiorder_to_partition(labeled: LabeledSemiorder) -> OrderedSetPartition:
    """Inverse map: read blocks off in the seed's canonical element order."""
    if labeled.seed != staircase_seed(labeled.seed.n):
        raise LengthTooLargeError("only length-<=1 labeled semiorders come from partitions")
    return OrderedSetPartition(labeled.blocks)


def labeled_from_relation(rows, labels=None) -> LabeledSemiorder:
    """Canonicalize an explicit labeled strictly-greater matrix.

    ``rows[a][b]`` says label a+1 is above label b+1 (or ``labels`` remaps
    positions).  Equivalent labels are grouped, classes are ordered
    canonically (class below-count descending, then above-count
    ascending), and the seed is rebuilt from the class relation.
    """
    n = len(rows)
    if labels is None:
        labels = list(range(1, n + 1))
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
    seed_rows = [[rows[reps[a]][reps[b]] for b in order] for a in order]
    seed = semiorder_from_matrix(seed_rows)
    blocks = tuple(tuple(labels[a] for a in classes[c]) for c in order)
    return LabeledSemiorder(seed, blocks)


def all_ordered_partitions(n: int):
    """Yield every ordered set partition of {1, ..., n} (Fubini-many)."""
    if n < 0:
        raise InvalidParametersError("need n >= 0")

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        for size in range(1, len(remaining) + 1):
            for block in combinations(remaining, size):
                rest = tuple(x for x in remaining if x not in block)
                for tail in rec(rest):
                    yield (block,) + tail

    for blocks in rec(tuple(range(1, n + 1))):
        yield OrderedSetPartition(blocks)
