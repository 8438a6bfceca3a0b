"""Self-check suites behind the ``verify`` CLI subcommand.

Each suite returns deterministic report lines ending in OK or MISMATCH;
a suite passes iff no line says MISMATCH.
"""

from __future__ import annotations

from itertools import permutations

from . import bijection, core, counting, labeled, oracle, trees, trunk

SUITES = ("all", "bijection", "recurrences", "labeled", "trunk", "oracle")


def _line(ok: bool, text: str) -> str:
    return f"{text} {'OK' if ok else 'MISMATCH'}"


def suite_bijection(max_n: int) -> list[str]:
    lines = []
    top = min(max_n, 9)
    for n in range(1, top + 1):
        images = {}
        ok = True
        for tree in trees.all_trees(n + 1):
            s = bijection.tree_to_semiorder(tree)
            profile = core.level_profile(s)
            ok &= s.n == n
            ok &= profile.length + 1 == tree.height
            ok &= s not in images
            ok &= bijection.semiorder_to_tree(s) == tree
            path = trees.tree_to_dyck(tree)
            ok &= bijection.dyck_to_semiorder(path) == s and bijection.semiorder_to_dyck(s) == path
            images[s] = tree
        for s in oracle.enumerate_semiorders(n):
            ok &= bijection.tree_to_semiorder(bijection.semiorder_to_tree(s)) == s
        ok &= len(images) == counting.catalan(n)
        lines.append(_line(ok, f"bijection n={n} trees={counting.catalan(n)}"))
    return lines


def suite_recurrences(max_n: int) -> list[str]:
    lines = []
    top = max(max_n, 2)
    for h in range(0, 11):
        ok = True
        for n in range(0, top + 1):
            reference = counting.count_leq(n, h, "convolution")
            for method in ("alternating", "series", "trig"):
                ok &= counting.count_leq(n, h, method) == reference
            if h in (1, 3):
                ok &= counting.count_leq(n, h, "closed") == reference
        lines.append(_line(ok, f"recurrences h={h} n<={top}"))
    rows = [counting.series_exact(h, top) for h in range(top)]  # rows[h][n] = f(n, h)
    ok = all(sum(row[n] for row in rows[:n]) == counting.catalan(n) for n in range(1, top + 1))
    lines.append(_line(ok, f"catalan-marginal n<={top}"))
    return lines


def suite_labeled(max_n: int) -> list[str]:
    top = min(max_n, 12)
    lines = []
    ok = all(labeled.count_labeled_leq(n, 1) == labeled.ordered_bell(n) for n in range(top + 1))
    lines.append(_line(ok, f"labeled ordered-bell n<={top}"))
    ok = all(labeled.count_labeled_leq(n, 0) == 1 for n in range(top + 1))
    lines.append(_line(ok, f"labeled antichain n<={top}"))
    small = min(max_n, 6)
    seen = set()
    ok = True
    for partition in labeled.all_ordered_partitions(small):
        image = labeled.partition_to_labeled_semiorder(partition)
        ok &= labeled.labeled_semiorder_to_partition(image) == partition
        seen.add(image)
    ok &= len(seen) == labeled.ordered_bell(small)
    lines.append(_line(ok, f"labeled partition-bijection n={small}"))
    return lines


def suite_trunk(max_n: int) -> list[str]:
    lines = []
    for m in range(1, min(max_n, 6) + 1):
        staircase = core.Semiorder(tuple(range(m, 0, -1)) + (0,) * m)
        ok = trunk.count_trunk_trees(staircase) == counting.catalan(m)
        lines.append(_line(ok, f"trunk catalan m={m}"))
    top = min(max_n, 7)
    ok = True
    for m in range(1, top + 1):
        by_peaks: dict[int, set] = {}
        for sigma in permutations(range(1, m + 1)):
            pairs = trunk.rtl_minima(sigma)
            by_peaks.setdefault(len(pairs), set()).add(pairs)
        for k in range(1, m + 1):
            ok &= len(by_peaks.get(k, ())) == trunk.narayana(m, k)
    lines.append(_line(ok, f"trunk narayana m<={top}"))
    ok = True
    for m in range(1, top + 1):
        for path in trees.all_dyck_words(m):
            pairs = trunk.dyck_to_rtlm(path)
            ok &= trunk.rtlm_to_dyck(pairs, m) == path
    lines.append(_line(ok, f"trunk dyck-roundtrip m<={top}"))
    return lines


def suite_oracle(max_n: int) -> list[str]:
    lines = []
    for n in range(1, min(max_n, 9) + 1):
        histogram = oracle.oracle_counts(n, route="vectors")
        for h in range(0, n):
            observed = histogram.get(h, 0)
            expected = counting.count_exact(n, h)
            lines.append(
                _line(observed == expected, f"n={n} h={h} oracle={observed} formula={expected}")
            )
    for n in range(1, min(max_n, oracle.POSET_BOUND) + 1):
        vectors = oracle.oracle_counts(n, route="vectors")
        posets = oracle.oracle_counts(n, route="posets")
        lines.append(_line(vectors == posets, f"routes n={n} vectors=posets"))
    return lines


def run_suite(suite: str, max_n: int = 8) -> tuple[list[str], bool]:
    """Run one suite (or ``all``); returns (report lines, all passed)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if max_n < 1:
        raise ValueError(f"need max_n >= 1; got {max_n}")
    runners = {
        "bijection": suite_bijection,
        "recurrences": suite_recurrences,
        "labeled": suite_labeled,
        "trunk": suite_trunk,
        "oracle": suite_oracle,
    }
    names = list(runners) if suite == "all" else [suite]
    lines: list[str] = []
    for name in names:
        lines.extend(runners[name](max_n))
    return lines, all(line.endswith(" OK") for line in lines)
