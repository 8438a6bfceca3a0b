"""One fresh benchmark process: set up, then either stop or run the timed phase.

    worker.py --workload NAME --seed N --seconds S --role probe|run [--trace 0|1]

The package is imported from ``src/`` of the checkout this file lies in.
Set-up is the import of the package (``semiorders.cli`` for the cli
workload) and an untimed warm-up; the process prints a ``ready`` line when
it is done, and the parent times set-up from spawn to that line.  A probe
then exits.  A run generates the inputs, loops over whole rounds of ops one
at a time until at least S seconds of op time, MIN_ROUNDS rounds and
MIN_SAMPLES ops are done, checks every op's output after its clock stops,
and prints one JSON line with the op latencies and, when traced, the
per-layer aggregates; a traced run also writes its spans to
``perfbench/out/trace-<workload>-<seed>.json``.  Before each op, outside
its clock, it times a fixed reference work; the parent scales op latencies
by it (see ``Reference`` and ``StartReference``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_SAMPLES = 120  # twelve or more latencies beyond the 90th percentile
MIN_ROUNDS = 5  # so every run holds the whole mix of ops several times
# The timed phase stops after the current op past this much wall time and
# the run is reported as truncated.  The longest timed phase, cli's, takes
# 25-45 s; with this limit an untraced and a traced run of one workload
# still end within three minutes.
WALL_LIMIT_S = 80.0
PROBE_REFERENCES = 7  # reference runs a set-up probe makes after it is ready


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("probe", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int):
    """Import the package from the checkout and build the workload object."""
    started = time.perf_counter()
    importlib.import_module("semiorders.cli" if name == "cli" else "semiorders")
    import_s = time.perf_counter() - started
    source = os.path.realpath(sys.modules["semiorders"].__file__)
    if not source.startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        raise SystemExit(f"semiorders imported from {source}, not from the checkout")
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    if name == "cli":
        return cls(seed, ROOT, cli_env()), import_s
    return cls(seed), import_s


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class Reference:
    """Fixed pure-Python work sharing no code with the library: the yardstick
    of machine speed.

    Other tenants of the machine slow every process on it by up to 40 % for
    seconds at a time, and code that leans on the core, on big integers or
    on memory slows by different amounts.  So the yardstick times three
    parts and takes their geometric mean: a small-integer loop, products of
    2000-bit integers, and a C-level sum over a list of 100k integers
    (about 3.6 MB, allocated once).  Each part runs once untimed before it
    is timed, so what an op left in the caches does not change the timing,
    and the garbage collector, whose cost grows with the library's heap, is
    kept off while the parts run.
    """

    # seconds() as measured when this constant was set, on an Intel Xeon
    # (Sapphire Rapids) KVM guest with 2 vCPUs and CPython 3.11.7 (0.63 ms
    # when the parts got their untimed first run); scaled timings are wall
    # times at the machine speed this stands for.
    NOMINAL_S = 0.00065

    def __init__(self):
        self._big = [3 ** (k % 61 + 1200) for k in range(40)]
        self._ints = list(range(1000, 101_000))

    def _loop(self) -> int:
        total = 0
        for i in range(8000):
            total += i * i % 7
        return total

    def _products(self) -> int:
        big = self._big
        total = 0
        for t in range(40):
            total += big[t] * big[(7 * t) % 40]
        return total

    def _memory(self) -> int:
        return sum(self._ints)

    def seconds(self, repeats: int = 1) -> float:
        """Median over ``repeats`` of the geometric mean of the three parts' times."""
        parts = (self._loop, self._products, self._memory)
        means = []
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeats):
                product = 1.0
                for part in parts:
                    part()
                    t0 = time.perf_counter()
                    part()
                    product *= time.perf_counter() - t0
                means.append(product ** (1 / 3))
        finally:
            if collecting:
                gc.enable()
        return statistics.median(means)


class StartReference:
    """The yardstick for the cli workload, whose ops are new interpreter
    processes: the start of a bare interpreter (``python -I -S -c pass``).

    It shares no code with the library and pays, as each CLI op does, for
    process creation, loading and interpreter set-up, which other tenants
    slow by other amounts than in-process work.  Over a three-minute
    series of CLI ops, the spread of their median between blocks of 68 ops
    was 16 % unscaled, 15 % scaled by ``Reference`` and 3 % scaled by this.
    """

    # seconds(), median of 475 starts on the machine ``Reference`` names
    NOMINAL_S = 0.022

    def seconds(self, repeats: int = 1) -> float:
        """Median over ``repeats`` of the time to start and end a bare interpreter."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], stdin=subprocess.DEVNULL,
                           stdout=subprocess.DEVNULL, check=True)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def timed_phase(workload, tracer, seconds: float, reference):
    """Closed loop, one op at a time, whole rounds.

    Returns the per-op records and whether the wall limit cut the run short.
    Before each op's clock starts, the reference work is timed; a record
    carries the op's round and that reference time.
    """
    records = []  # (kind, key, round, latency_s, ok, reference_s)
    busy = 0.0
    started = time.perf_counter()
    index = 0
    op_id = 0
    while True:
        for op in workload.round(index):
            reference_s = reference.seconds()
            tracer.begin_op(op_id)
            t0 = time.perf_counter()
            try:
                out = workload.execute(op, tracer)
                error = False
            except Exception:  # any exception is a failed op, counted below
                out, error = None, True
            latency = time.perf_counter() - t0
            tracer.end_op()
            ok = False
            if not error:
                try:
                    ok = bool(workload.check(op, out))
                except Exception:
                    ok = False
            del out
            records.append((op.kind, op.key, index, latency, ok, reference_s))
            busy += latency
            op_id += 1
            if time.perf_counter() - started > WALL_LIMIT_S:
                return records, True
        index += 1
        if busy >= seconds and index >= MIN_ROUNDS and len(records) >= MIN_SAMPLES:
            return records, False


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload, import_s = make_workload(args.workload, args.seed)
    workload.warm_up()
    print(json.dumps({"ready": True, "import_ms": import_s * 1000.0}), flush=True)
    reference = StartReference() if args.workload == "cli" else Reference()
    if args.role == "probe":
        print(json.dumps({"reference_s": reference.seconds(PROBE_REFERENCES),
                          "nominal_s": reference.NOMINAL_S}), flush=True)
        return 0

    from spans import NullTracer, Tracer

    tracer = Tracer() if args.trace else NullTracer()
    workload.start()
    try:
        records, truncated = timed_phase(workload, tracer, args.seconds, reference)
        rss_mb = workload.peak_rss_kb() / 1024.0
    finally:
        workload.close()
    final_ok = bool(workload.final_check())
    result = {
        "records": records,
        "final_ok": final_ok,
        "truncated": truncated,
        "nominal_s": reference.NOMINAL_S,
        "peak_rss_mb": rss_mb,
    }
    if args.trace:
        result["calls"] = dict(tracer.calls)
        result["busy"] = dict(tracer.busy)
        result["self_s"] = tracer.self_s
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
