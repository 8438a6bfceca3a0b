"""Spans recorded around the calls the benchmark makes into the library.

Every library call in ``workloads.py`` goes through a tracer.  The untraced
run uses ``NullTracer``, which calls straight through, so end-to-end numbers
carry no recording cost.  The traced run uses ``Tracer``, which keeps every
span as (name, start, end, parent, op id) in memory, aggregates calls and
busy time per span name, and writes the spans out when the run ends.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Calls through without recording anything."""

    def begin_op(self, op_id: int) -> None:
        pass

    def end_op(self) -> None:
        pass

    def call(self, name: str, fn, *args):
        return fn(*args)

    def iterate(self, name: str, iterable):
        return iterable


class Tracer:
    """Records one span per library call, nested under the op's own span.

    Every span is kept, column by column in typed arrays (about 33 bytes a
    span), so a run of a million tiny calls fits in memory; the spans are
    written out when the run ends.  Calls and busy seconds per name and the
    op spans' self time are summed as the spans are recorded.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")  # index of the op span, -1 for op spans
        self.op_id = array("q")
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s = 0.0
        self._op_id = -1
        self._op_index = -1
        self._op_start = 0.0
        self._op_children = 0.0

    def _store(self, name: str, start: float, end: float, parent: int) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op_id.append(self._op_id)
        return len(self.name) - 1

    def _record(self, name: str, start: float, end: float) -> None:
        self.calls[name] += 1
        self.busy[name] += end - start
        self._op_children += end - start
        self._store(name, start, end, self._op_index)

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._op_children = 0.0
        self._op_index = self._store("op", 0.0, 0.0, -1)
        self._op_start = perf_counter()

    def end_op(self) -> None:
        end = perf_counter()
        self.self_s += (end - self._op_start) - self._op_children
        self.start[self._op_index] = self._op_start
        self.end[self._op_index] = end
        self._op_id = self._op_index = -1

    def call(self, name: str, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._record(name, start, perf_counter())

    def iterate(self, name: str, iterable):
        """Yield from ``iterable``, one span per item produced."""
        it = iter(iterable)
        while True:
            start = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                self._record(name, start, perf_counter())
                return
            self._record(name, start, perf_counter())
            yield item

    def write(self, path) -> None:
        """Write all spans as columns: span i is (names[name[i]], start[i], ...)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "op_id": self.op_id.tolist(),
                },
                fh,
            )
