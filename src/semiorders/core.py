"""Canonical vector form of semiorders and their structural operations.

A semiorder (a poset with no induced 2+2 and no induced 3+1) on n elements
is stored, up to isomorphism, as a single nonincreasing integer vector
rho = (r_1, ..., r_n) with 0 <= r_i <= n - i.  Element i is strictly above
exactly the r_i rightmost elements, i.e. those with indices
n - r_i + 1, ..., n.  Two semiorders compare equal iff their vectors do.

Besides the order relation itself, this module computes the level
structure (element levels, per-level sizes, longest-chain length), bad and
good elements, the split/join decomposition behind the convolution
recurrence on counts, and contraction/expansion of equivalence classes.
All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import attrgetter


class NegativeEntryError(ValueError):
    """An entry of the defining vector is negative."""

    def __init__(self, index: int):
        super().__init__(f"entry r_{index} is negative")
        self.index = index


class NotNonincreasingError(ValueError):
    """The defining vector increases somewhere."""

    def __init__(self, index: int):
        super().__init__(f"entry r_{index} is larger than r_{index - 1}")
        self.index = index


class EntryTooLargeError(ValueError):
    """Some entry r_i exceeds n - i, so it cannot count elements below i."""

    def __init__(self, index: int, limit: int):
        super().__init__(f"entry r_{index} exceeds n - {index} = {limit}")
        self.index = index
        self.limit = limit


class EmptySemiorderError(ValueError):
    """The operation needs at least one element."""


class LengthTooLargeError(ValueError):
    """The operation is defined only for semiorders of smaller length."""


class Frozen:
    """Base of the package's value classes.  A subclass lists its fields in
    ``__slots__``; Frozen writes an ``__init__`` that sets them once, by
    position or keyword, and compares (within one class) and hashes by the key
    ``_key(value)``: the field for one field, the tuple of fields for more.  A
    subclass adds only what differs: an ``__init__`` with checks or
    defaults that sets its fields through ``object.__setattr__``, or its
    own ``_key``, as ``OrderedTree`` compares by its Dyck word."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_key" not in cls.__dict__:
            cls._key = attrgetter(*cls.__slots__)
        if "__init__" not in cls.__dict__:
            # written out per class, as dataclasses does: a loop over the fields
            # costs twice as much per value, which tiny vectors feel
            sets = "".join(f"\n    _set(self, {name!r}, {name})" for name in cls.__slots__)
            namespace = {"_set": object.__setattr__}
            exec(f"def __init__(self, {', '.join(cls.__slots__)}):{sets}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self.__class__._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self.__class__._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the checked constructor
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Semiorder(Frozen):
    """A semiorder in canonical vector form.

    ``rho[i-1]`` is r_i, the number of elements strictly below element i.
    Elements are indexed 1..n in vector order; "element i is to the right
    of element j" means i > j.
    """

    __slots__ = ("rho",)

    def __init__(self, rho: tuple[int, ...] = ()):
        rho = tuple(rho)
        object.__setattr__(self, "rho", rho)
        n = len(rho)
        for i, r in enumerate(rho, start=1):
            if r < 0:
                raise NegativeEntryError(i)
            if r > n - i:
                raise EntryTooLargeError(i, n - i)
            if i >= 2 and r > rho[i - 2]:
                raise NotNonincreasingError(i)

    @property
    def n(self) -> int:
        return len(self.rho)

    @classmethod
    def _trusted(cls, rho: tuple[int, ...]) -> "Semiorder":
        """Wrap a vector that is valid by construction, unchecked."""
        s = object.__new__(cls)
        object.__setattr__(s, "rho", rho)
        return s

    @property
    def length(self) -> int:
        """Number of edges in a longest chain.  Undefined when n = 0."""
        rho, n = self.rho, len(self.rho)
        if n == 0:
            raise EmptySemiorderError("empty semiorder has no level structure")
        length, start = -1, 0
        while start < n:  # hop from level start to level start, as level_profile does
            length, start = length + 1, n - rho[start]
        return length

    def greater(self, i: int, j: int) -> bool:
        """True iff element i is strictly above element j (1-based)."""
        _check_elements(self.n, i, j)
        return i != j and j > self.n - self.rho[i - 1]

    @classmethod
    def from_vector(cls, entries) -> "Semiorder":
        """Validate an integer sequence and wrap it as a semiorder."""
        return cls(tuple(int(v) for v in entries))

    @classmethod
    def from_counts(cls, counts) -> "Semiorder":
        """Build from below-counts in any order (canonically re-sorted)."""
        return cls(tuple(sorted((int(v) for v in counts), reverse=True)))

    @classmethod
    def from_text(cls, text: str) -> "Semiorder":
        """Parse comma-separated entries; the empty string is the empty semiorder."""
        if text == "":
            return cls(())
        return cls.from_vector(int(part) for part in text.split(","))

    def to_text(self) -> str:
        return ",".join(str(r) for r in self.rho)

    __str__ = to_text


class ComparabilityMatrix(Frozen):
    """Explicit strictly-greater relation of a semiorder (irreflexive,
    antisymmetric, transitive)."""

    __slots__ = ("rows",)

    @property
    def n(self) -> int:
        return len(self.rows)

    def greater(self, i: int, j: int) -> bool:
        _check_elements(self.n, i, j)
        return self.rows[i - 1][j - 1]


class LevelProfile(Frozen):
    """Level assignment of a nonempty semiorder.

    ``level_of[i-1]`` is the level of element i: the largest L such that a
    chain of L - 1 elements sits strictly above it.  Levels form
    consecutive blocks in vector order, so level k occupies the index
    range ``elements_on(k)``.
    """

    __slots__ = ("level_of", "sizes")

    @property
    def length(self) -> int:
        return len(self.sizes) - 1

    @property
    def good_elements(self) -> tuple[int, ...]:
        """Elements on the last (deepest) level."""
        return tuple(self.elements_on(len(self.sizes)))

    def elements_on(self, level: int) -> range:
        start = 1 + sum(self.sizes[: level - 1])
        return range(start, start + self.sizes[level - 1])


def _check_elements(n: int, *elements: int) -> None:
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} is outside 1..{n}")


def comparability(s: Semiorder) -> ComparabilityMatrix:
    """Materialize the strictly-greater relation of ``s`` as a boolean matrix."""
    n = s.n
    rows = tuple(
        tuple(j > n - s.rho[i - 1] and i != j for j in range(1, n + 1))
        for i in range(1, n + 1)
    )
    return ComparabilityMatrix(rows)


def level_profile(s: Semiorder) -> LevelProfile:
    """Assign levels to elements and report per-level sizes.

    Levels are consecutive blocks read off the vector in one scan: level 1
    is 1..n - r_1, and a level starting at element t ends at n - r_t,
    because t has the largest entry on its level and the elements beyond
    n - r_t are exactly those below some element of that level.
    """
    n = s.n
    if n == 0:
        raise EmptySemiorderError("empty semiorder has no level structure")
    level_of: list[int] = []
    sizes: list[int] = []
    start = 1
    while start <= n:
        end = n - s.rho[start - 1]
        sizes.append(end - start + 1)
        level_of.extend([len(sizes)] * (end - start + 1))
        start = end + 1
    return LevelProfile(tuple(level_of), tuple(sizes))


def bad_elements(s: Semiorder) -> dict[int, int]:
    """Levels carrying a bad element, with one representative index each.

    An element is bad when it is below everything on the level immediately
    above it (or sits on the first level) and above nothing on the level
    immediately below it (or sits on the last level).  Bad elements on one
    level are interchangeable, so the rightmost one represents its level.
    Both conditions get easier further right, so only that one is checked.
    """
    ends = list(accumulate(level_profile(s).sizes))
    reach = [s.n - s.rho[end - 1] for end in ends]  # end is above exactly the elements past reach
    found: dict[int, int] = {}
    for lv, end in enumerate(ends, start=1):
        below_all_above = lv == 1 or end > reach[lv - 2]
        above_none_below = lv == len(ends) or reach[lv - 1] >= ends[lv]
        if below_all_above and above_none_below:
            found[lv] = end
    return found


def induced(s: Semiorder, elements) -> Semiorder:
    """Induced sub-semiorder on a subset of elements (1-based indices).

    Down-sets are suffixes, so a chosen element e sits above exactly the
    chosen indices beyond n - r_e; that threshold only moves right.
    """
    chosen = sorted(set(elements))
    if chosen:
        _check_elements(s.n, chosen[0], chosen[-1])
    counts: list[int] = []
    passed = 0  # chosen indices at or before the current threshold
    for e in chosen:
        threshold = s.n - s.rho[e - 1]
        while passed < len(chosen) and chosen[passed] <= threshold:
            passed += 1
        counts.append(len(chosen) - passed)
    return Semiorder(tuple(counts))


def split(s: Semiorder) -> tuple[Semiorder, Semiorder]:
    """Decompose ``s`` into the pair (S1, S3) that inverts :func:`join`.

    Starting from the rightmost first-level element a_1, grow the chain of
    sets T_1 = {a_1}, T_{i+1} = level-(i+1) elements below something in
    T_i.  S1 is induced on the complement of their union, S3 on the union
    minus a_1 itself.  Each T_i is a suffix of its level whose leftmost
    element t reaches furthest, so T_{i+1} is the part of level i+1 beyond
    n - r_t.
    """
    if s.n == 0:
        raise EmptySemiorderError("cannot split the empty semiorder")
    sizes = level_profile(s).sizes
    top = end = sizes[0]  # a_1, the largest index on level 1
    reached = [top]
    for size in sizes[1:]:
        end += size
        top = s.n - s.rho[top - 1] + 1
        if top > end:
            break
        reached.extend(range(top, end + 1))
    in_chain = set(reached)
    s1 = induced(s, (e for e in range(1, s.n + 1) if e not in in_chain))
    s3 = induced(s, reached[1:])
    return s1, s3


def join(s1: Semiorder, s3: Semiorder) -> Semiorder:
    """Recombine a split pair into one semiorder; inverse of :func:`split`.

    A new top element is placed above all of S3 (giving S2); then levels
    are merged side by side with every level-(i-1) element of S1 above all
    level-i elements of S2, plus the forced relations between levels two
    or more apart.  The result is read off the below-counts: an S1 element
    on level L also covers the S2 elements on levels L+1 and deeper, an S2
    element on level L the S1 elements on levels L+2 and deeper.
    """
    s2 = Semiorder((s3.n,) + s3.rho)
    levels1 = level_profile(s1).level_of if s1.n else ()
    levels2 = level_profile(s2).level_of
    counts = [r + len(levels2) - bisect_left(levels2, lv + 1) for r, lv in zip(s1.rho, levels1)]
    counts += [r + len(levels1) - bisect_left(levels1, lv + 2) for r, lv in zip(s2.rho, levels2)]
    return Semiorder.from_counts(counts)


def equivalence_classes(s: Semiorder) -> list[range]:
    """Maximal runs of equivalent elements, in vector order.

    Two elements are equivalent when they compare identically with every
    other element; in canonical form such elements occupy consecutive
    indices with equal r and equal up-set.  The up-set of e is the prefix
    1..a_e of entries greater than n - e, and a_e only grows with e.
    """
    if s.n == 0:
        raise EmptySemiorderError("empty semiorder has no equivalence classes")
    classes: list[range] = []
    start, above, key = 1, 0, (s.rho[0], 0)  # element 1 has an empty up-set
    for e in range(2, s.n + 1):
        while s.rho[above] > s.n - e:  # halts by e's own entry, as r_e <= n - e
            above += 1
        if (s.rho[e - 1], above) != key:
            classes.append(range(start, e))
            start, key = e, (s.rho[e - 1], above)
    classes.append(range(start, s.n + 1))
    return classes


def contraction(s: Semiorder) -> tuple[Semiorder, tuple[int, ...]]:
    """Collapse every equivalence class to one element.

    Returns the seed semiorder together with the class sizes, in the
    seed's own canonical vector order, so that
    ``expansion(seed, multiplicities) == s``.
    """
    classes = equivalence_classes(s)
    reps = [c[0] for c in classes]
    seed_rho = tuple(len(reps) - bisect_right(reps, s.n - s.rho[rep - 1]) for rep in reps)
    return Semiorder(seed_rho), tuple(len(c) for c in classes)


def expansion(seed: Semiorder, multiplicities) -> Semiorder:
    """Replace seed element i by ``multiplicities[i-1]`` equivalent copies."""
    mults = tuple(int(m) for m in multiplicities)
    if len(mults) != seed.n:
        raise ValueError("need one multiplicity per seed element")
    if any(m < 1 for m in mults):
        raise ValueError("multiplicities must be positive")
    tail = list(accumulate(reversed(mults), initial=0))[::-1]  # tail[k]: copies of k+1..n
    # each copy of i is above the copies past n - r_i, so the counts come out nonincreasing
    return Semiorder(tuple(tail[seed.n - r] for r, m in zip(seed.rho, mults) for _ in range(m)))
