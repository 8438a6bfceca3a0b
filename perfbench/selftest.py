"""Tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

The generators repeat for a fixed seed, a wrong answer or an exception is
counted as a failed op, a run cut by the wall-time limit is flagged, scaled
timings follow a known change in op cost while the yardstick stays put,
every span is kept, and every metric name and unit is well formed and
matches BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import sys
import unittest
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from inputs import Op  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def result(records, final_ok=True, truncated=False) -> dict:
    """A worker's result line around ``records``."""
    return {"records": records, "final_ok": final_ok, "peak_rss_mb": 1.0, "truncated": truncated,
            "nominal_s": worker.Reference.NOMINAL_S}


class Spin:
    """A stand-in workload.  Each kind (name, loops, touch) is an op that
    spins a loop of ``loops`` steps and then copies a buffer of ``touch``
    bytes, which pushes the yardstick's data out of the caches; a round
    alternates the kinds."""

    def __init__(self, *kinds):
        self.kinds = kinds
        self.buffers = {touch: bytearray(touch) for _, _, touch in kinds}

    def round(self, index):
        return [Op(name, (loops, touch)) for name, loops, touch in self.kinds] * (50 // len(self.kinds))

    def execute(self, op, tr):
        loops, touch = op.args
        total = 0
        for i in range(loops):
            total += i
        return total, len(bytes(self.buffers[touch]))

    def check(self, op, out):
        loops, touch = op.args
        return out == (loops * (loops - 1) // 2, touch)


def is_dyck(word: str) -> bool:
    altitude = 0
    for step in word:
        altitude += 1 if step == "U" else -1
        if altitude < 0:
            return False
    return altitude == 0


class Generators(unittest.TestCase):
    def test_rounds_repeat_for_a_seed(self):
        for name, make in inputs.ROUNDS.items():
            for index in (0, 3):
                self.assertEqual(make(7, index), make(7, index), name)
            self.assertNotEqual(make(7, 0), make(8, 0), name)
            self.assertNotEqual(make(7, 0), make(7, 1), name)

    def test_dyck_words_are_valid_and_cover_all_words(self):
        rng = inputs.round_rng("test", 1, 0)
        for n in (0, 1, 5, 40):
            word = inputs.dyck_word(rng, n)
            self.assertEqual(len(word), 2 * n)
            self.assertTrue(is_dyck(word))
        seen = Counter(inputs.dyck_word(rng, 3) for _ in range(5000))
        self.assertEqual(len(seen), 5)  # C_3
        self.assertLess(max(seen.values()) / min(seen.values()), 1.3)

    def test_vector_codec_is_injective_and_canonical(self):
        from semiorders.trees import all_dyck_words

        vectors = set()
        for path in all_dyck_words(6):
            text = inputs.dyck_to_vector_text(path.word)
            rho = [int(v) for v in text.split(",")]
            self.assertTrue(all(a >= b for a, b in zip(rho, rho[1:])))
            self.assertTrue(all(0 <= r <= 6 - i for i, r in enumerate(rho, start=1)))
            vectors.add(text)
        self.assertEqual(len(vectors), 132)  # C_6

    def test_staircase_has_distinct_upper_entries(self):
        rng = inputs.round_rng("test", 2, 0)
        for m in inputs.TRUNK_M:
            rho = inputs.staircase(rng, m)
            upper = [r for r in rho if r]
            self.assertEqual(len(upper), m)
            self.assertEqual(len(set(upper)), m)
            self.assertEqual(rho[0], len(rho) - m)


class FailedOps(unittest.TestCase):
    def test_wrong_answer_and_exception_count_as_failed(self):
        class Broken(workloads.Counts):
            def round(self, index):
                return [
                    Op("leq", (12, 2), ("leq", 2)),
                    Op("exact", (12, 2), ("exact", 2)),
                    Op("leq", (-1, 2), ("leq", 2)),  # the library raises
                ]

            def execute(self, op, tr):
                out = super().execute(op, tr)
                return out + 1 if op.kind == "exact" else out

        records, truncated = worker.timed_phase(Broken(0), NullTracer(), 0.0, worker.Reference())
        self.assertFalse(truncated)
        self.assertGreaterEqual(len(records), worker.MIN_SAMPLES)
        summary = run.summarize(result(records))
        self.assertEqual(summary["attempted"], len(records))
        self.assertEqual(summary["failed"], 2 * len(records) // 3)
        self.assertEqual([ok for *_, ok, _ in records[:3]], [True, False, False])

    def test_failed_final_check_counts(self):
        summary = run.summarize(result([("leq", (), 0, 0.001, True, 0.002)], final_ok=False))
        self.assertEqual(summary["failed"], 1)

    def test_wall_limit_flags_the_run(self):
        limit = worker.WALL_LIMIT_S
        worker.WALL_LIMIT_S = 0.0
        try:
            records, truncated = worker.timed_phase(Spin(("spin", 10, 0)), NullTracer(), 1.0, worker.Reference())
        finally:
            worker.WALL_LIMIT_S = limit
        self.assertTrue(truncated)
        self.assertEqual(len(records), 1)
        self.assertTrue(run.summarize(result(records, truncated=True))["truncated"])

    def test_correct_ops_pass_their_checks(self):
        w = workloads.Counts(0)
        for op in [Op("leq", (30, 3)), Op("exact", (30, 2)), Op("labeled_leq", (20, 1)),
                   Op("labeled_exact", (20, 3)), Op("by_good", (15, 1)), Op("by_good", (15, 3)),
                   Op("series_leq", (40, 3, (0, 7, 40))), Op("series_exact", (40, 5, (9, 40))),
                   Op("labeled_series", (25, 2, (3, 25)))]:
            self.assertTrue(w.check(op, w.execute(op, NullTracer())), op)
        self.assertTrue(workloads.Maps(0).final_check())


class Scaling(unittest.TestCase):
    """Scaled timings move with the op's own cost, not with the yardstick."""

    def test_known_slowdown_moves_scaled_figures_by_its_factor(self):
        summaries = []
        for loops in (20_000, 60_000):
            records, _ = worker.timed_phase(Spin(("spin", loops, 0)), NullTracer(), 0.0, worker.Reference())
            summaries.append(run.summarize(result(records)))
        base, slow = summaries
        self.assertEqual(base["failed"] + slow["failed"], 0)
        self.assertAlmostEqual(slow["op_p50_ms"] / base["op_p50_ms"], 3.0, delta=0.45)
        self.assertAlmostEqual(base["ops_per_s"] / slow["ops_per_s"], 3.0, delta=0.45)

    def test_yardstick_ignores_the_op_before_it(self):
        """Ops three times as costly, or sweeping 32 MB, alternate with plain
        ops; the yardstick times after either kind agree.  Interleaving keeps
        the machine's own drift out of the comparison."""
        plain = ("plain", 20_000, 0)
        cases = [
            (worker.Reference(), ("heavy", 60_000, 0)),
            (worker.Reference(), ("heavy", 20_000, 32 << 20)),
            (worker.StartReference(), ("heavy", 60_000, 32 << 20)),
        ]
        for reference, heavy in cases:
            records, _ = worker.timed_phase(Spin(plain, heavy), NullTracer(), 0.0, reference)
            after: dict[str, list[float]] = {"plain": [], "heavy": []}
            for before, record in zip(records, records[1:]):
                after[before[0]].append(record[5])
            ratio = statistics.median(after["heavy"]) / statistics.median(after["plain"])
            self.assertAlmostEqual(ratio, 1.0, delta=0.15, msg=f"{type(reference).__name__} after {heavy}")


class Tracing(unittest.TestCase):
    def test_spans_nest_under_their_op(self):
        tr = Tracer()
        tr.begin_op(0)
        tr.call("layer.f", sum, [1, 2])
        list(tr.iterate("layer.g", range(3)))
        tr.end_op()
        self.assertEqual(tr.calls, {"layer.f": 1, "layer.g": 4})
        self.assertEqual([tr.names[i] for i in tr.name], ["op", "layer.f"] + ["layer.g"] * 4)
        self.assertEqual(list(tr.parent), [-1] + [0] * 5)
        self.assertEqual(list(tr.op_id), [0] * 6)
        self.assertLessEqual(tr.start[0], tr.start[1])
        self.assertGreaterEqual(tr.end[0], tr.end[-1])
        self.assertGreaterEqual(tr.self_s, 0.0)

    def test_every_span_is_kept_and_written(self):
        tr = Tracer()
        for op_id in range(300):
            tr.begin_op(op_id)
            list(tr.iterate("layer.g", range(999)))
            tr.end_op()
        self.assertEqual(len(tr.name), 300 * 1001)
        path = os.path.join(HERE, "out", "selftest-trace.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        try:
            tr.write(path)
            with open(path) as fh:
                written = json.load(fh)
        finally:
            os.remove(path)
        self.assertEqual(written["names"], ["op", "layer.g"])
        self.assertEqual(len(written["start"]), 300 * 1001)
        self.assertEqual(written["op_id"][-1], 299)
        self.assertEqual(written["parent"][-1], 299 * 1001)


class Metrics(unittest.TestCase):
    def test_names_and_units_are_well_formed_and_declared(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        e2e = run.END_TO_END_UNITS
        layer = run.PER_LAYER_UNITS
        for table in (e2e, layer):
            for name, unit in table.items():
                self.assertTrue(NAME.fullmatch(name), name)
                self.assertTrue(UNIT.fullmatch(unit), unit)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, e2e)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, layer)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
