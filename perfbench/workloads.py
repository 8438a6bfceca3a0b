"""What each workload's op does, and how its output is checked.

``execute`` is the timed part: one op, every library call made through the
tracer under the name of the layer it enters.  ``check`` runs after the op's
clock has stopped and compares the output with routes that share no code
with the timed call: the alternating recurrence, closed forms and Catalan
numbers computed here, ordered Bell numbers, a Stirling transform done here
modulo a prime, and the Dyck word's own depth profile.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from collections import Counter
from operator import attrgetter

from inputs import ROUNDS, Op
from spans import NullTracer

# A 61-bit Mersenne prime: labeled counts are compared with an independent
# Stirling transform modulo this prime, which keeps the check cheap.
PRIME = (1 << 61) - 1

WORKED_TREE = "(((()()))(()((()))))"
WORKED_VECTOR = "7,6,4,2,2,1,1,1,0"
WORKED_STAGES = ("0,0", "3,2,0,0,0", "6,5,3,1,1,0,0,0", "7,6,4,2,2,1,1,1,0")


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def closed_form(n: int, h: int) -> int | None:
    """f_leq(n, h) at h = 1 and h = 3, or None."""
    if n == 0 and h in (1, 3):
        return 1
    if h == 1:
        return 2 ** (n - 1)
    if h == 3:
        return (3 ** (n - 1) + 1) // 2
    return None


def stirling_transform_mod(coefficients, n: int) -> int:
    """sum_k c_k (-1)^(n-k) k! S(n, k) modulo PRIME, with S built row by row here."""
    row = [1]
    for m in range(1, n + 1):
        nxt = [0] * (m + 1)
        for k in range(1, m + 1):
            nxt[k] = ((k * row[k] if k < m else 0) + row[k - 1]) % PRIME
        row = nxt
    total = 0
    factorial = 1
    for k in range(n + 1):
        if k:
            factorial = factorial * k % PRIME
        term = coefficients[k] % PRIME * factorial % PRIME * row[k]
        total += -term if (n - k) % 2 else term
    return total % PRIME


def depth_profile(word: str) -> tuple[int, ...]:
    """Nodes per depth 1, 2, ... of the tree whose walk is ``word``."""
    sizes: list[int] = []
    altitude = 0
    for step in word:
        if step == "U":
            altitude += 1
            if altitude > len(sizes):
                sizes.append(0)
            sizes[altitude - 1] += 1
        else:
            altitude -= 1
    return tuple(sizes)


class Workload:
    name = ""

    def __init__(self, seed: int):
        import semiorders

        self.lib = semiorders
        self.seed = seed
        self._round = ROUNDS[self.name]

    def round(self, index: int) -> list[Op]:
        return self._round(self.seed, index)

    def warm_up(self) -> None:
        """Run tiny ops through every code path the timed ops use."""

    def start(self) -> None:
        """Acquire what the timed phase needs, after set-up is timed."""

    def close(self) -> None:
        """Release what ``start`` acquired."""

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def execute(self, op: Op, tr):
        raise NotImplementedError

    def check(self, op: Op, out) -> bool:
        raise NotImplementedError

    def final_check(self) -> bool:
        """A check made once per run, after the timed phase."""
        return True


class Counts(Workload):
    name = "counts"

    def __init__(self, seed: int):
        super().__init__(seed)
        self._alt: dict[tuple[int, int], int] = {}

    def warm_up(self) -> None:
        for kind in ("leq", "exact", "labeled_leq", "labeled_exact", "by_good"):
            self.execute(Op(kind, (4, 2)), _NULL)
        for kind in ("series_leq", "series_exact", "labeled_series"):
            self.execute(Op(kind, (4, 2, (4,))), _NULL)

    def execute(self, op: Op, tr):
        lib = self.lib
        kind, args = op.kind, op.args
        if kind == "leq":
            return tr.call("counting.count", lib.count_leq, *args)
        if kind == "exact":
            return tr.call("counting.count", lib.count_exact, *args)
        if kind == "labeled_leq":
            return tr.call("labeled.count_labeled", lib.count_labeled_leq, *args)
        if kind == "labeled_exact":
            return tr.call("labeled.count_labeled", lib.count_labeled_exact, *args)
        if kind == "by_good":
            n, h = args
            return [tr.call("counting.count_by_good", lib.count_by_good, n, h, k) for k in range(1, n + 1)]
        order, h, _ = args
        if kind == "series_exact":
            return tr.call("counting.series", lib.series_exact, h, order)
        coefficients = tr.call("counting.series", lib.series_leq, h, order)
        if kind == "labeled_series":
            return tr.call("labeled.substitute", lib.substitute_one_minus_exp, coefficients)
        return coefficients

    # -- references ---------------------------------------------------------

    def leq(self, n: int, h: int) -> int:
        if h < 0:
            return 1 if n == 0 else 0
        key = (n, h)
        if key not in self._alt:
            self._alt[key] = self.lib.count_leq(n, h, "alternating")
        return self._alt[key]

    def exact(self, n: int, h: int) -> int:
        return 0 if n == 0 else self.leq(n, h) - self.leq(n, h - 1)

    def labeled_ok(self, value: int, n: int, h: int, exact: bool) -> bool:
        coefficient = self.exact if exact else self.leq
        ok = value % PRIME == stirling_transform_mod([coefficient(k, h) for k in range(n + 1)], n)
        if h == 1 and not exact:
            ok &= value == self.lib.ordered_bell(n)
        return ok

    def check(self, op: Op, out) -> bool:
        kind, args = op.kind, op.args
        if kind in ("leq", "exact"):
            n, h = args
            if kind == "exact":
                return out == self.exact(n, h)
            closed = closed_form(n, h)
            return out == self.leq(n, h) and closed in (None, out) and (h < n - 1 or out == catalan(n))
        if kind in ("labeled_leq", "labeled_exact"):
            n, h = args
            return self.labeled_ok(out, n, h, kind == "labeled_exact")
        if kind == "by_good":
            n, h = args
            ok = len(out) == n and sum(out) == self.exact(n, h)
            ok &= all(v == 0 for v in out[max(n - h, 0):])
            if h == 1:
                ok &= out == [math.comb(n - 1, k) for k in range(1, n + 1)]
            return ok
        order, h, indices = args
        if len(out) != order + 1:
            return False
        if kind == "labeled_series":
            return all(self.labeled_ok(out[i], i, h, False) for i in indices)
        if kind == "series_exact":
            return all(out[i] == self.exact(i, h) for i in indices) and not any(out[: h + 1])
        ok = all(out[i] == self.leq(i, h) for i in indices)
        ok &= all(out[i] == catalan(i) for i in range(min(h + 2, order + 1)))
        if h in (1, 3):
            ok &= all(out[i] == closed_form(i, h) for i in range(order + 1))
        return ok


class Maps(Workload):
    name = "maps"

    def warm_up(self) -> None:
        self.execute(Op("chain", ("UUDUDD", True)), _NULL)

    def execute(self, op: Op, tr):
        lib = self.lib
        word, with_split = op.args
        path = tr.call("trees.parse", lib.DyckPath.from_text, word)
        tree = tr.call("trees.walk", lib.dyck_to_tree, path)
        s = tr.call("bijection.tree_to_semiorder", lib.tree_to_semiorder, tree)
        profile = tr.call("core.level_profile", lib.level_profile, s)
        back = tr.call("bijection.semiorder_to_tree", lib.semiorder_to_tree, s)
        back_path = tr.call("trees.walk", lib.tree_to_dyck, back)
        back_word = tr.call("trees.render", lib.DyckPath.to_text, back_path)
        text = tr.call("core.render", lib.Semiorder.to_text, s)
        parsed = tr.call("core.Semiorder", lib.Semiorder.from_text, text)
        rejoined = None
        if with_split:
            s1, s3 = tr.call("core.split_join", lib.split, s)
            rejoined = tr.call("core.split_join", lib.join, s1, s3)
        return s, profile.sizes, back_word, parsed, rejoined

    def check(self, op: Op, out) -> bool:
        word, with_split = op.args
        s, sizes, back_word, parsed, rejoined = out
        ok = back_word == word and parsed == s and s.n == len(word) // 2
        ok &= sizes == depth_profile(word)
        if with_split:
            ok &= rejoined == s
        return ok

    def final_check(self) -> bool:
        """The paper's worked example, with its stage vectors byte-exact."""
        lib = self.lib
        tree = lib.OrderedTree.from_text(WORKED_TREE)
        stages = tuple(",".join(str(v) for v in stage) for stage in lib.construction_stages(tree))
        s = lib.Semiorder.from_text(WORKED_VECTOR)
        return (
            stages == WORKED_STAGES
            and lib.tree_to_semiorder(tree).to_text() == WORKED_VECTOR
            and lib.semiorder_to_tree(s).to_text() == WORKED_TREE
        )


class Enumerate(Workload):
    name = "enumerate"

    def __init__(self, seed: int):
        super().__init__(seed)
        lib = self.lib
        self._series: dict[tuple[int, int], int] = {}
        self.renderers = {
            "vector": lambda s: s.to_text(),
            "tree": lambda s: lib.semiorder_to_tree(s).to_text(),
            "dyck": lambda s: lib.semiorder_to_dyck(s).to_text(),
        }

    def warm_up(self) -> None:
        for fmt in self.renderers:
            self.execute(Op("enumerate", (3, 1, fmt)), _NULL)
        self.execute(Op("trunk", ((2, 1, 0, 0),)), _NULL)

    def execute(self, op: Op, tr):
        lib = self.lib
        if op.kind == "trunk":
            (rho,) = op.args
            s = lib.Semiorder(rho)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return tr.call("trunk.count_trunk_trees", lib.count_trunk_trees, s)
        n, h, fmt = op.args
        render = self.renderers[fmt]
        lengths: Counter = Counter()
        lines = []
        for s in tr.iterate("oracle.enumerate", lib.enumerate_semiorders(n)):
            length = tr.call("core.length", _length, s)
            lengths[length] += 1
            if length <= h:
                lines.append(tr.call("bijection.render", render, s))
        return lengths, lines

    def exact(self, n: int, h: int) -> int:
        key = (n, h)
        if key not in self._series:
            self._series[key] = self.lib.series_exact(h, n)[n]
        return self._series[key]

    def check(self, op: Op, out) -> bool:
        if op.kind == "trunk":
            (rho,) = op.args
            return out == catalan(sum(1 for r in rho if r))
        n, h, fmt = op.args
        lengths, lines = out
        ok = sum(lengths.values()) == catalan(n)
        ok &= all(lengths.get(k, 0) == self.exact(n, k) for k in range(n))
        ok &= len(lines) == sum(v for k, v in lengths.items() if k <= h) == len(set(lines))
        return ok


class Cli(Workload):
    name = "cli"

    def __init__(self, seed: int, root: str, env: dict):
        super().__init__(seed)
        import semiorders.cli

        self.cli = semiorders.cli
        self.root = root
        self.env = env
        self._spawner = None

    def start(self) -> None:
        self._spawner = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawner.py")],
            cwd=self.root,
            env=self.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def close(self) -> None:
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.wait(timeout=60)
            self._spawner.stdout.close()
            self._spawner = None

    def _ask(self, request):
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        return json.loads(self._spawner.stdout.readline())

    def peak_rss_kb(self) -> int:
        """The largest CLI process so far, as its spawner saw it."""
        return self._ask("rss")

    def execute(self, op: Op, tr):
        return tr.call("cli." + op.kind, self._ask, list(op.args))

    def check(self, op: Op, out) -> bool:
        buffer = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = self.cli.run(list(op.args), buffer)
        returncode, stdout = out
        ok = returncode == 0 == code and stdout == buffer.getvalue()
        if ok and op.kind == "count":
            args = op.args
            n, h = int(args[2]), int(args[4])
            alt = self.lib.count_leq
            value = alt(n, h, "alternating")
            if "--at-most" not in args:
                value = 0 if n == 0 else value - (alt(n, h - 1, "alternating") if h else 0)
            ok = int(stdout) == value
        return ok


_NULL = NullTracer()
_length = attrgetter("length")
WORKLOADS = {"counts": Counts, "maps": Maps, "enumerate": Enumerate, "cli": Cli}
