"""Seeded input generators for the four workloads.

Every workload is an endless stream of rounds.  Round r is drawn from its
own ``random.Random`` seeded with (workload, seed, r), so the same seed
always gives the same ops in the same order, however many rounds a run
reaches.  A round is a stratified deck of cells: each cell (op kind, h,
size stratum, ...) appears once per round with a fresh input, and the deck
is shuffled.  A cell's size moves through its stratum (on a log scale) from
round to round along a Kronecker sequence, frac(u + r * GOLDEN), with the
offset u drawn from the seed: over any number of rounds the sizes spread
evenly over the stratum, so the cost of a run's ops hardly depends on the
seed, while every round still gets new inputs and no query repeats
exactly.  Shapes (Dyck words, formats, flags) are drawn freely.

Nothing here looks at the library or at how an op went: no input is
filtered, resized or redrawn because it fails or is slow.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

# length bounds h used by the counting queries; repeats are intended, so
# queries share work through h
H_SET = (1, 2, 3, 5, 8)
COUNT_N = (50, 600)          # unlabeled counts and series prefixes
LABELED_N = (50, 300)        # labeled counts and labeled series prefixes
BY_GOOD_N = (20, 100)        # count_by_good rows
COUNT_STRATA = 2
MAPS_N = (20, 600)           # Dyck semilength
MAPS_STRATA = 8
MAPS_CHAIN_ONLY = 3          # per stratum and round, plus one op with split/join
ENUM_N = (5, 6, 7, 8, 9)
ENUM_FORMATS = ("vector", "tree", "dyck")
TRUNK_M = (1, 2, 3, 4, 5, 6, 7)
VERIFY_SUITES = ("bijection", "recurrences", "labeled", "trunk", "oracle")


class Op(NamedTuple):
    kind: str
    args: tuple
    # (kind, h) for counts; used for the share of ops that repeat a key
    key: tuple = ()


GOLDEN = (math.sqrt(5) - 1) / 2


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


class Draws:
    """Random sources for round ``index`` of a workload.

    ``rng`` is the round's own generator.  ``position()`` returns, for the
    j-th call in the round, frac(u_j + index * GOLDEN) where u_j is the j-th
    draw of a generator seeded with (workload, seed) alone; round generators
    call it in the same order every round, so call j always belongs to the
    same cell.
    """

    def __init__(self, workload: str, seed: int, index: int):
        self.rng = round_rng(workload, seed, index)
        self._offsets = random.Random(f"{workload}/{seed}/offsets")
        self._shift = index * GOLDEN

    def position(self) -> float:
        return (self._offsets.random() + self._shift) % 1.0

    def log_strata(self, lo: int, hi: int, k: int) -> list[int]:
        """One size per stratum: stratum i spans the i-th k-th of [lo, hi] on a log scale."""
        span = math.log(hi) - math.log(lo)
        return [round(math.exp(math.log(lo) + (i + self.position()) * span / k)) for i in range(k)]

    def randint(self, lo: int, hi: int) -> int:
        """An integer in [lo, hi], spread evenly over the rounds like the sizes."""
        return lo + int(self.position() * (hi - lo + 1))


def dyck_word(rng: random.Random, n: int) -> str:
    """Uniform random Dyck word of semilength n by the cycle lemma.

    Of the 2n+1 rotations of a shuffled sequence of n up-steps and n+1
    down-steps, exactly one keeps every proper prefix nonnegative: the one
    starting just after the first minimum of the prefix sums.  Dropping its
    final down-step leaves the Dyck word.
    """
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    low = altitude = cut = 0
    for i, step in enumerate(steps, start=1):
        altitude += step
        if altitude < low:
            low, cut = altitude, i
    rotated = steps[cut:] + steps[:cut]
    return "".join("U" if step == 1 else "D" for step in rotated[:-1])


def dyck_to_parens(word: str) -> str:
    """Balanced-parenthesis text of the plane tree whose walk is ``word``."""
    return "(" + word.replace("U", "(").replace("D", ")") + ")"


def dyck_to_vector_text(word: str) -> str:
    """A canonical semiorder vector in bijection with ``word``.

    With a_i the number of down-steps before the i-th up-step (nondecreasing,
    a_i <= i - 1), r_i = a_{n+1-i} is nonincreasing with r_i <= n - i.
    """
    before = []
    downs = 0
    for step in word:
        if step == "U":
            before.append(downs)
        else:
            downs += 1
    return ",".join(str(v) for v in reversed(before))


def staircase(rng: random.Random, m: int) -> tuple[int, ...]:
    """A length-<=1 vector with m upper elements whose entries are pairwise distinct.

    L lower elements (m <= L <= m + 3); the top entry is L so that every
    lower element lies below some upper one, the other m - 1 upper entries
    are distinct values in 1..L-1.
    """
    lower = m + rng.randrange(4)
    rest = sorted(rng.sample(range(1, lower), m - 1), reverse=True)
    return (lower, *rest) + (0,) * lower


def _sample_indices(rng: random.Random, order: int, k: int = 3) -> tuple[int, ...]:
    return tuple(sorted(set(rng.randrange(order + 1) for _ in range(k)) | {order}))


def counts_round(seed: int, index: int) -> list[Op]:
    """Unlabeled/labeled point counts, series prefixes and count_by_good rows."""
    d = Draws("counts", seed, index)
    deck = []
    for h in H_SET:
        for kind in ("leq", "exact"):
            deck += [Op(kind, (n, h), (kind, h)) for n in d.log_strata(*COUNT_N, COUNT_STRATA)]
        for kind in ("labeled_leq", "labeled_exact"):
            deck += [Op(kind, (n, h), (kind, h)) for n in d.log_strata(*LABELED_N, COUNT_STRATA)]
        for kind in ("series_leq", "series_exact"):
            deck += [
                Op(kind, (order, h, _sample_indices(d.rng, order)), (kind, h))
                for order in d.log_strata(*COUNT_N, COUNT_STRATA)
            ]
        deck += [
            Op("labeled_series", (order, h, _sample_indices(d.rng, order)), ("labeled_series", h))
            for order in d.log_strata(*LABELED_N, COUNT_STRATA)
        ]
        deck += [Op("by_good", (n, h), ("by_good", h)) for n in d.log_strata(*BY_GOOD_N, COUNT_STRATA)]
    d.rng.shuffle(deck)
    return deck


def maps_round(seed: int, index: int) -> list[Op]:
    """Uniform Dyck words through the whole map chain; one in four also splits and joins."""
    d = Draws("maps", seed, index)
    deck = []
    for n in d.log_strata(*MAPS_N, MAPS_STRATA):
        deck += [Op("chain", (dyck_word(d.rng, n), False)) for _ in range(MAPS_CHAIN_ONLY)]
        deck.append(Op("chain", (dyck_word(d.rng, n), True)))
    d.rng.shuffle(deck)
    return deck


def enumerate_round(seed: int, index: int) -> list[Op]:
    """Streamed enumeration with a length filter in each format, plus trunk-tree counts."""
    d = Draws("enumerate", seed, index)
    deck = []
    for n in ENUM_N:
        # three bins of the length bound h in 0..n-1, low to high
        edges = [k * n // 3 for k in range(4)]
        for fmt in ENUM_FORMATS:
            deck += [Op("enumerate", (n, d.randint(lo, hi - 1), fmt)) for lo, hi in zip(edges, edges[1:])]
    deck += [Op("trunk", (staircase(d.rng, m),)) for m in TRUNK_M]
    d.rng.shuffle(deck)
    return deck


def cli_round(seed: int, index: int) -> list[Op]:
    """Every subcommand at small sizes; three strata each of count and map, one verify per suite."""
    d = Draws("cli", seed, index)
    rng = d.rng
    deck = []
    for n in d.log_strata(10, 200, 3):
        argv = ["count", "--n", str(n), "--height", str(rng.choice(H_SET))]
        if rng.random() < 0.5:
            argv.append("--at-most")
        deck.append(Op("count", tuple(argv)))
    for n in d.log_strata(5, 80, 3):
        word = dyck_word(rng, n)
        source = rng.choice(("vector", "tree", "dyck"))
        target = rng.choice(("vector", "tree", "dyck"))
        text = {"vector": dyck_to_vector_text(word), "tree": dyck_to_parens(word), "dyck": word}[source]
        deck.append(Op("map", ("map", "--from", source, "--to", target, "--input", text)))
    for terms in d.log_strata(5, 60, 2):
        argv = ["series", "--height", str(rng.choice(H_SET)), "--terms", str(terms)]
        argv += [flag for flag in ("--at-most", "--labeled") if rng.random() < 0.5]
        deck.append(Op("series", tuple(argv)))
    for low, high in ((3, 5), (6, 7)):
        n = d.randint(low, high)
        argv = ["enumerate", "--n", str(n), "--format", rng.choice(ENUM_FORMATS)]
        if rng.random() < 0.5:
            argv += ["--max-height", str(rng.randint(0, n - 1))]
        deck.append(Op("enumerate", tuple(argv)))
    for low, high in ((1, 3), (4, 6)):
        argv = ["trunk-trees", "--rho", ",".join(str(v) for v in staircase(rng, d.randint(low, high)))]
        if rng.random() < 0.5:
            argv.append("--count-only")
        deck.append(Op("trunk-trees", tuple(argv)))
    for suite in VERIFY_SUITES:
        top = 4 if suite == "oracle" else 5  # the poset route at n = 5 alone takes seconds
        deck.append(Op("verify", ("verify", "--suite", suite, "--max-n", str(d.randint(2, top)))))
    d.rng.shuffle(deck)
    return deck


ROUNDS = {
    "counts": counts_round,
    "maps": maps_round,
    "enumerate": enumerate_round,
    "cli": cli_round,
}
