"""Independent brute-force ground truth for the counting and structure claims.

Two generation routes that share nothing with the counting formulas:

* every canonical vector with n <= 14 (nonincreasing, r_i <= n - i),
  enumerated in lexicographic order -- Catalan-many;
* every strict partial order on up to 5 labeled points, built by inserting
  one element at a time with a compatible (up-set, down-set) choice, then
  reduced to isomorphism classes by minimizing over all relabelings.

Forbidden-pattern detection (2+2 and 3+1) is exact induced-subposet
matching over all 4-subsets; no attempt is made to be clever at this
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations

from .core import Semiorder, comparability

VECTOR_BOUND = 14
POSET_BOUND = 5


class BoundExceededError(ValueError):
    def __init__(self, n: int, bound: int):
        super().__init__(f"n = {n} exceeds the brute-force bound {bound}")
        self.n = n
        self.bound = bound


def _check_size(n: int, bound: int, force: bool) -> None:
    if n < 0:
        raise ValueError(f"need n >= 0; got {n}")
    if n > bound and not force:
        raise BoundExceededError(n, bound)


class Pattern(Enum):
    TWO_PLUS_TWO = "2+2"
    THREE_PLUS_ONE = "3+1"


@dataclass(frozen=True)
class GenericPoset:
    """A strict partial order given by its full greater-than matrix."""

    rows: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(bool(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        for i in range(n):
            if rows[i][i]:
                raise ValueError("strict order must be irreflexive")
            for j in range(n):
                if rows[i][j] and rows[j][i]:
                    raise ValueError("strict order must be antisymmetric")
                if rows[i][j]:
                    for k in range(n):
                        if rows[j][k] and not rows[i][k]:
                            raise ValueError("strict order must be transitive")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_semiorder(cls, s: Semiorder) -> "GenericPoset":
        return cls(comparability(s).rows)

    def length(self) -> int:
        """Edges in a longest chain."""
        n = self.n
        depth = [0] * n
        for i in sorted(range(n), key=lambda v: sum(self.rows[u][v] for u in range(n))):
            above = [depth[u] for u in range(n) if self.rows[u][i]]
            depth[i] = 1 + max(above) if above else 0
        return max(depth, default=0)

    def canonical_form(self) -> tuple[bool, ...]:
        """Minimum flattened matrix over all relabelings."""
        n = self.n
        best = None
        for perm in permutations(range(n)):
            flat = tuple(self.rows[perm[i]][perm[j]] for i in range(n) for j in range(n))
            if best is None or flat < best:
                best = flat
        return best if best is not None else ()


def enumerate_semiorders(n: int, force: bool = False):
    """Yield every n-element semiorder vector in lexicographic order."""
    _check_size(n, VECTOR_BOUND, force)

    # successor: raise the rightmost r_i below min(r_{i-1}, n - i), zero the rest
    rho = [0] * n
    while True:
        yield Semiorder(tuple(rho))
        i = n - 1
        while i >= 0 and rho[i] == min(rho[i - 1] if i else n - 1, n - 1 - i):
            i -= 1
        if i < 0:
            return
        rho[i] += 1
        rho[i + 1 :] = [0] * (n - 1 - i)


def has_pattern(poset: GenericPoset, pattern: Pattern) -> bool:
    """Exact induced occurrence of 2+2 (two disjoint 2-chains) or 3+1
    (a 3-chain plus an element incomparable to all of it)."""
    rows = poset.rows
    for quad in combinations(range(poset.n), 4):
        related = [
            (a, b) for a in quad for b in quad if a != b and rows[a][b]
        ]
        if pattern is Pattern.TWO_PLUS_TWO:
            if len(related) == 2:
                (a, b), (c, d) = related
                if {a, b}.isdisjoint({c, d}):
                    return True
        else:
            if len(related) == 3:
                tops = {p for p, _ in related}
                bottoms = {q for _, q in related}
                # a transitive 3-chain has two tops, two bottoms, and one
                # element of the quad untouched
                untouched = set(quad) - tops - bottoms
                if len(tops) == 2 and len(bottoms) == 2 and len(untouched) == 1:
                    return True
    return False


def is_semiorder_poset(poset: GenericPoset) -> bool:
    return not has_pattern(poset, Pattern.TWO_PLUS_TWO) and not has_pattern(
        poset, Pattern.THREE_PLUS_ONE
    )


def labeled_posets(n: int, force: bool = False):
    """Yield every strict partial order on {0, ..., n-1} exactly once.

    Element k is inserted into each poset on {0, ..., k-1} with every
    compatible pair (D, U): D down-closed, U up-closed, disjoint, and
    D inside the down-set of every member of U.
    """
    _check_size(n, POSET_BOUND, force)

    posets: list[tuple[int, ...]] = [()]  # down-set bitmasks per element
    for k in range(n):
        extended: list[tuple[int, ...]] = []
        for downs in posets:
            above = [_above_mask(downs, e) for e in range(k)]
            down_choices = [
                d
                for d in range(1 << k)
                if all(downs[e] | d == d for e in range(k) if d >> e & 1)
            ]
            up_choices = [
                u
                for u in range(1 << k)
                if all(above[e] | u == u for e in range(k) if u >> e & 1)
            ]
            for d in down_choices:
                for u in up_choices:
                    if d & u:
                        continue
                    # transitivity through k: everything in D already below
                    # everything in U
                    if any(downs[e] | d != downs[e] for e in range(k) if u >> e & 1):
                        continue
                    extended.append(
                        tuple(
                            downs[e] | (1 << k) if u >> e & 1 else downs[e]
                            for e in range(k)
                        )
                        + (d,)
                    )
        posets = extended
    for downs in posets:
        rows = tuple(
            tuple(bool(downs[i] >> j & 1) for j in range(n)) for i in range(n)
        )
        yield GenericPoset(rows)


def _above_mask(downs: tuple[int, ...], e: int) -> int:
    return sum(1 << f for f in range(len(downs)) if downs[f] >> e & 1)


def enumerate_posets(n: int, force: bool = False) -> list[GenericPoset]:
    """All strict partial orders on n points up to isomorphism."""
    seen: dict[tuple[bool, ...], GenericPoset] = {}
    for poset in labeled_posets(n, force=force):
        key = poset.canonical_form()
        if key not in seen:
            seen[key] = poset
    return [seen[key] for key in sorted(seen)]


def oracle_counts(n: int, route: str = "vectors") -> dict[int, int]:
    """Histogram {length: number of isomorphism classes} of n-element semiorders.

    ``vectors`` walks the canonical vectors (n <= 14); ``posets`` filters
    the generic isomorphism classes by pattern-freeness (n <= 5).  The two
    must agree wherever both run.
    """
    histogram: dict[int, int] = {}
    if route == "vectors":
        for s in enumerate_semiorders(n):
            if s.n == 0:
                continue
            length = s.length
            histogram[length] = histogram.get(length, 0) + 1
    elif route == "posets":
        for poset in enumerate_posets(n):
            if poset.n and is_semiorder_poset(poset):
                length = poset.length()
                histogram[length] = histogram.get(length, 0) + 1
    else:
        raise ValueError(f"unknown route {route!r}; choose 'vectors' or 'posets'")
    return dict(sorted(histogram.items()))
