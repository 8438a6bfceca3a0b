"""Independent brute-force ground truth for the counting and structure claims.

Two generation routes that share nothing with the counting formulas:

* every canonical vector with n <= 14 (nonincreasing, r_i <= n - i),
  enumerated in lexicographic order -- Catalan-many;
* every strict partial order on up to 5 labeled points, as the relabelings
  of the naturally labeled ones (i above j only if i < j), which are the
  transitive sets of pairs i < j; a class is named by its least relabeling.

Forbidden-pattern detection (2+2 and 3+1) is exact induced-subposet
matching over all 4-subsets; no attempt is made to be clever at this
scale.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import combinations, permutations

from . import _ints
from .core import Frozen, Semiorder

VECTOR_BOUND = 14
POSET_BOUND = 5


class BoundExceededError(ValueError):
    def __init__(self, n: int, bound: int):
        super().__init__(f"n = {n} exceeds the brute-force bound {bound}")
        self.n = n
        self.bound = bound


def _check_size(n: int, bound: int, force: bool = False) -> int:
    [n] = _ints("need n >= 0; got {}", n=(n, 0))
    if n > bound and not force:
        raise BoundExceededError(n, bound)
    return n


class Pattern(Enum):
    TWO_PLUS_TWO = "2+2"
    THREE_PLUS_ONE = "3+1"


class GenericPoset(Frozen):
    """A strict partial order given by its full greater-than matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[bool, ...], ...]):
        rows = tuple(tuple(bool(v) for v in row) for row in rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError(f"need a square matrix; got {n} rows, not all of length {n}")
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

    def length(self) -> int:
        """Edges in a longest chain."""
        n = self.n
        depth = [0] * n
        for i in sorted(range(n), key=lambda v: sum(self.rows[u][v] for u in range(n))):
            above = [depth[u] for u in range(n) if self.rows[u][i]]
            depth[i] = 1 + max(above) if above else 0
        return max(depth, default=0)

    def _relabelings(self):
        """The flattened matrix of each relabeling, one per permutation."""
        rows = self.rows
        for perm in permutations(range(self.n)):
            yield tuple(rows[a][b] for a in perm for b in perm)

    def canonical_form(self) -> tuple[bool, ...]:
        """Minimum flattened matrix over all relabelings."""
        return min(self._relabelings())


def enumerate_semiorders(n: int, force: bool = False):
    """Yield every n-element semiorder vector in lexicographic order."""
    n = _check_size(n, VECTOR_BOUND, force)

    # successor (Nijenhuis and Wilf, 1978): raise the rightmost r_i below
    # min(r_{i-1}, n - i) and zero the rest, so every vector is valid unchecked
    trusted = Semiorder._trusted
    rho = [0] * n
    while True:
        yield trusted(tuple(rho))
        i = n - 2  # r_n is always 0
        while i > 0 and (rho[i] == rho[i - 1] or rho[i] == n - 1 - i):
            i -= 1
        if i < 0 or i == 0 and rho[0] == n - 1:
            return
        rho[i] += 1
        rho[i + 1 :] = [0] * (n - 1 - i)


def has_pattern(poset: GenericPoset, pattern: Pattern | str) -> bool:
    """Exact induced occurrence of 2+2 (two disjoint 2-chains) or 3+1
    (a 3-chain plus an element incomparable to all of it)."""
    pattern = Pattern(pattern)  # the member or its value, "2+2" or "3+1"
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


def _naturally_labeled(n: int):
    """Yield every order on {0, ..., n-1} in which i above j implies i < j:
    each transitive set of pairs i < j.  A poset labeled from the top down
    along a linear extension is one of them, so they reach every class."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [[False] * n for _ in range(n)]
        for bit, (i, j) in enumerate(pairs):
            rows[i][j] = mask >> bit & 1
        try:
            poset = GenericPoset(rows)
        except ValueError:  # not transitive
            continue
        yield poset


def labeled_posets(n: int):
    """Yield every strict partial order on {0, ..., n-1} exactly once,
    sorted by rows: the distinct relabelings of the naturally labeled ones."""
    n = _check_size(n, POSET_BOUND)
    labeled = {flat for poset in _naturally_labeled(n) for flat in poset._relabelings()}
    for flat in sorted(labeled):
        yield _unflatten(flat, n)


def enumerate_posets(n: int) -> list[GenericPoset]:
    """All strict partial orders on n points up to isomorphism, each as its
    minimal relabeling, sorted by canonical form."""
    n = _check_size(n, POSET_BOUND)
    forms = {poset.canonical_form() for poset in _naturally_labeled(n)}
    return [_unflatten(form, n) for form in sorted(forms)]


def _unflatten(flat: tuple[bool, ...], n: int) -> GenericPoset:
    return GenericPoset(zip(*[iter(flat)] * n))  # n rows of n entries


def oracle_counts(n: int, route: str = "vectors") -> dict[int, int]:
    """Histogram {length: number of isomorphism classes} of n-element semiorders.

    ``vectors`` walks the canonical vectors (n <= 14); ``posets`` filters
    the generic isomorphism classes by pattern-freeness (n <= 5).  The two
    must agree wherever both run.
    """
    if route == "vectors":
        lengths = (s.length for s in enumerate_semiorders(n) if s.n)
    elif route == "posets":
        lengths = (p.length() for p in enumerate_posets(n) if p.n and is_semiorder_poset(p))
    else:
        raise ValueError(f"unknown route {route!r}; choose 'vectors' or 'posets'")
    return dict(sorted(Counter(lengths).items()))
