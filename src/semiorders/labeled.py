"""Labeled semiorder counts and the ordered-set-partition bijection.

Labeled counts come from the unlabeled ordinary generating functions by
substituting 1 - e^(-x), carried out exactly on truncated series through

    n! [x^n] (1 - e^(-x))^k  =  T(n, k)  =  (-1)^(n-k) * k! * S(n, k)

with S the Stirling numbers of the second kind.  The series transform rolls
one row of T forward in place, by T(n, k) = k (T(n-1, k-1) - T(n-1, k)) from
S(n, k) = k S(n-1, k) + S(n-1, k-1).  A single count takes entry n alone as
the power sum sum_j (-1)^(n-j) j^n [y^j] F(1 + y), since k! S(n, k) =
sum_j (-1)^(k-j) C(k, j) j^n, with F(1 + y) shifted in one packed integer; the
two share no transform code, so each checks the other.  A labeled semiorder is
stored as its contraction seed plus the ordered label blocks of the
equivalence classes; seeds of semiorders are rigid, so within-class label
choices never matter and this form is canonical.  For length <= 1 the
labeled objects biject with ordered set partitions, whose blocks map in
order onto the classes of the staircase seed (m, m-1, ..., 1, 0, ..., 0).
"""

from __future__ import annotations

from itertools import combinations
from operator import add, mul

from . import InvalidParametersError, _ints
from .core import Frozen, LengthTooLargeError, Semiorder, contraction, expansion
from .counting import series_exact, series_leq


class InvalidPartitionError(ValueError):
    """Blocks are not disjoint nonempty sets covering 1..n, or they do not
    label the classes of a rigid seed one to one."""


def _rows():
    """Yield T(n, 0..n) for n = 0, 1, ... as one list updated in place: use a
    row before taking the next.  T(n, k) = k (T(n-1, k-1) - T(n-1, k)) for
    k = n..1, then T(n, 0) = 0."""
    row = [1]
    while True:
        yield row
        row.append(0)
        for k in range(len(row) - 1, 0, -1):
            row[k] = k * (row[k - 1] - row[k])
        row[0] = 0


def _substituted(coefficients):
    """Yield entry n of the transform as soon as coefficient n arrives."""
    seen = []
    for f, row in zip(coefficients, _rows()):
        seen.append(f)
        yield sum(map(mul, seen, row))


def substitute_one_minus_exp(coefficients) -> tuple[int, ...]:
    """Exponential coefficients of F(1 - e^(-x)) from ordinary ones of F.

    Entry n of the result is n! [x^n] F(1 - e^(-x)) =
    sum_k f_k (-1)^(n-k) k! S(n, k), an exact integer.
    """
    out = tuple(_substituted(coefficients))
    if not out:
        raise InvalidParametersError("the series needs at least one coefficient")
    return out


def _power_sum(f: tuple[int, ...]) -> int:
    """Entry n = len(f) - 1 of the transform of f (every f_k >= 0), as the module's power sum.
    Each g_j <= 2^n sum(f) fits a slot of `size` bytes, so Horner packs F(1 + y) in one int."""
    n = len(f) - 1
    size = (n + sum(f).bit_length() + 8) // 8
    packed = tail = 0
    for k, c in enumerate(reversed(f), 1):  # the last f_k wait in tail: one big shift-add a step
        packed += packed << 8 * size
        tail = (tail << 8 * size) + tail + c
        if k % 32 == 0:
            packed, tail = packed + tail, 0
    raw = (packed + tail).to_bytes(size * (n + 1), "little")
    return sum((-1) ** (n - j) * pow(j, n) * int.from_bytes(raw[j * size:(j + 1) * size], "little")
               for j in range(n + 1))


def count_labeled_leq(n: int, h: int) -> int:
    """Labeled n-element semiorders of length at most h."""
    n, h = _ints(n=(n, 0), h=(h, 0))
    return _power_sum(series_leq(h, n))


def count_labeled_exact(n: int, h: int) -> int:
    """Labeled n-element semiorders of length exactly h (0 at n = 0)."""
    n, h = _ints(n=(n, 0), h=(h, 0))
    return _power_sum(series_exact(h, n))


def ordered_bell(n: int) -> int:
    """Fubini numbers via a(n) = sum_k binom(n, k) a(n-k); independent of series."""
    [n] = _ints(n=(n, 0))
    values, row = [1], [1]
    for _ in range(n):
        row = [1, *map(add, row, row[1:]), 1]  # binom(m, 0..m), m = len(values)
        values.append(sum(map(mul, row[1:], reversed(values))))
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


class OrderedSetPartition(Frozen):
    """Linearly ordered disjoint nonempty blocks covering {1, ..., n}."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "blocks", _checked_blocks(blocks))

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

    __str__ = to_text


class LabeledSemiorder(Frozen):
    """A labeled semiorder as (contraction seed, ordered label blocks).

    ``blocks[i-1]`` holds the labels of the equivalence class expanding
    seed element i.  Together the blocks partition {1, ..., n}; labelings
    that differ only within a class are the same object.  The seed must be
    rigid (no two of its elements equivalent), so each labeled semiorder
    has exactly one form.
    """

    __slots__ = ("seed", "blocks")

    def __init__(self, seed: Semiorder, blocks: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "blocks", _checked_blocks(blocks))
        if len(self.blocks) != seed.n:
            raise InvalidPartitionError("need exactly one label block per seed element")
        if seed.n and contraction(seed)[1] != (1,) * seed.n:
            raise InvalidPartitionError("the seed must be rigid: no two of its elements equivalent")

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
    [k] = _ints(k=(k, 1))
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


def all_ordered_partitions(n: int):
    """Yield every ordered set partition of {1, ..., n} (Fubini-many)."""
    [n] = _ints(n=(n, 0))

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
