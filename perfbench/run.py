"""Benchmark of the semiorders library and CLI.

    python3 perfbench/run.py --workload counts|maps|enumerate|cli|all
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a closed loop: one op at a time from one worker process,
the next op only after the previous one returns and its output is checked.

--trace 0 prints the end-to-end metrics: ops per second of op time,
median and 90th-percentile op latency, set-up time of a fresh worker
(median of SETUP_PROBES processes), all scaled to a fixed machine speed
(see ``summarize``), and the worker's peak RSS.  --trace 1
runs the same inputs once untraced and once traced, in two fresh workers,
and prints the per-layer metrics of the traced run and the tracing
overhead.  The last line of output is one JSON object; the exit code is 1
when any op failed or gave a wrong answer, 2 when the checkout has no
package to measure, and 3 when a run hit the worker's wall-time limit
before it had its minimum of rounds and ops (see ``worker.WALL_LIMIT_S``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("counts", "maps", "enumerate", "cli")
SETUP_PROBES = 9
# a worker's timed phase stops at worker.WALL_LIMIT_S; this leaves time for
# its last op, the final check and writing the trace
WORKER_TIMEOUT_S = 110.0
CLI_SUBCOMMANDS = ("count", "map", "series", "enumerate", "trunk-trees", "verify")
# (layer, call) pairs reported as <layer>.<call>.calls and .busy_s
LAYER_CALLS = (
    "core.level_profile",
    "core.Semiorder",
    "core.split_join",
    "core.length",
    "core.render",
    "trees.parse",
    "trees.walk",
    "trees.render",
    "bijection.tree_to_semiorder",
    "bijection.semiorder_to_tree",
    "bijection.render",
    "counting.count",
    "counting.series",
    "counting.count_by_good",
    "labeled.count_labeled",
    "labeled.substitute",
    "oracle.enumerate",
    "trunk.count_trunk_trees",
)


END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"{name}.{part}": unit for name in LAYER_CALLS for part, unit in (("calls", "count"), ("busy_s", "s"))},
    "oracle.vectors_per_s": "1/s",
    "cli.import_ms": "ms",
    **{f"cli.{sub}.p50_ms": "ms" for sub in CLI_SUBCOMMANDS},
    "bench.wall_ops_per_s": "1/s",
    "bench.wall_p50_ms": "ms",
    "bench.wall_p90_ms": "ms",
    "bench.wall_setup_s": "s",
    "bench.reference_ms": "ms",
    "bench.self_s": "s",
    "bench.samples": "count",
    "bench.fail_ratio": "ratio",
    "bench.repeat_share": "ratio",
    "trace.overhead_pct": "%",
}


def worker_cmd(workload: str, seed: int, seconds: float, role: str, trace: int = 0):
    return [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--role", role,
        "--trace", str(trace),
    ]


def spawn(cmd):
    """Start a worker; return (seconds from spawn to its ready line, ready info, last line)."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready_line = proc.stdout.readline()
        ready_s = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not ready_line:
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    lines = rest.strip().splitlines()
    return ready_s, json.loads(ready_line), json.loads(lines[-1]) if lines else None


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float], list[float]]:
    """Set-up times of fresh probes, scaled like op latencies; also raw times and import ms."""
    # one discarded probe first, so bytecode caches exist for the measured ones
    spawn(worker_cmd(workload, seed, 0, "probe"))
    scaled, raw, imports = [], [], []
    for _ in range(SETUP_PROBES):
        ready_s, info, last = spawn(worker_cmd(workload, seed, 0, "probe"))
        scaled.append(ready_s * last["nominal_s"] / last["reference_s"])
        raw.append(ready_s)
        imports.append(info["import_ms"])
    return scaled, raw, imports


def percentile(values, q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def summarize(result: dict) -> dict:
    """End-to-end figures of one run from its per-op records.

    Each op's wall time is scaled by the yardstick's nominal time over the
    median time of the reference work in the op's round (measured between
    the ops; see worker.Reference and worker.StartReference), so
    that phases in which other tenants slow the whole machine cancel out.
    Throughput is ops over the sum of scaled latencies; p50 and p90 are taken
    over all scaled latencies of correct ops.  The unscaled figures are kept
    as ``wall_*``.
    """
    records = result["records"]
    references: dict[int, list[float]] = {}
    for _, _, rnd, _, _, reference in records:
        references.setdefault(rnd, []).append(reference)
    scale = {rnd: result["nominal_s"] / statistics.median(refs) for rnd, refs in references.items()}
    scaled = [latency * scale[rnd] for _, _, rnd, latency, ok, _ in records if ok]
    wall = [latency for _, _, _, latency, ok, _ in records if ok]
    failed = sum(1 for *_, ok, _ in records if not ok) + (0 if result["final_ok"] else 1)
    summary = {
        "attempted": len(records),
        "failed": failed,
        "peak_rss_mb": result["peak_rss_mb"],
        "reference_ms": statistics.median(r for *_, r in records) * 1000.0,
        "truncated": result["truncated"],
    }
    for prefix, latencies in (("", scaled), ("wall_", wall)):
        latencies = latencies or [float("nan")]
        summary[prefix + "ops_per_s"] = len(latencies) / sum(latencies)
        summary[prefix + "op_p50_ms"] = statistics.median(latencies) * 1000.0
        summary[prefix + "op_p90_ms"] = percentile(latencies, 90) * 1000.0
    p90 = summary["op_p90_ms"] / 1000.0
    summary["beyond_p90"] = sum(1 for latency in scaled if latency > p90)
    return summary


def repeat_share(records) -> float:
    """Share of ops whose key (for counts: kind and h) an earlier op already had."""
    seen = set()
    repeats = 0
    for _, key, *_ in records:
        key = tuple(key)
        if key and key in seen:
            repeats += 1
        seen.add(key)
    return repeats / len(records)


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """Returns (metrics {name: (value, unit)}, attempted, failed, notes)."""
    setups, raw_setups, imports = measure_setup(workload, seed)
    _, _, plain = spawn(worker_cmd(workload, seed, seconds, "run"))
    base = summarize(plain)
    notes = {
        "samples": base["attempted"],
        "beyond_p90": base["beyond_p90"],
        "fail_ratio": base["failed"] / base["attempted"],
        "setup_samples": len(setups),
        "truncated": base["truncated"],
    }
    if not trace:
        units = END_TO_END_UNITS
        values = {
            "ops_per_s": base["ops_per_s"],
            "op_p50_ms": base["op_p50_ms"],
            "op_p90_ms": base["op_p90_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": base["peak_rss_mb"],
        }
        return {k: (v, units[k]) for k, v in values.items()}, base["attempted"], base["failed"], notes

    _, _, traced = spawn(worker_cmd(workload, seed, seconds, "run", 1))
    summary = summarize(traced)
    notes["truncated"] |= summary["truncated"]
    units = PER_LAYER_UNITS
    values = {}
    for name in LAYER_CALLS:
        values[f"{name}.calls"] = traced["calls"].get(name, 0)
        values[f"{name}.busy_s"] = traced["busy"].get(name, 0.0)
    enum_busy = traced["busy"].get("oracle.enumerate", 0.0)
    # one span per vector yielded, plus the span that ends each stream
    enum_vectors = traced["calls"].get("oracle.enumerate", 0) - sum(
        1 for kind, *_ in traced["records"] if kind == "enumerate"
    )
    values["oracle.vectors_per_s"] = enum_vectors / enum_busy if enum_busy else 0.0
    values["cli.import_ms"] = statistics.median(imports) if workload == "cli" else 0.0
    for sub in CLI_SUBCOMMANDS:
        lat = [lat for kind, _, _, lat, _, _ in traced["records"] if kind == sub and workload == "cli"]
        values[f"cli.{sub}.p50_ms"] = statistics.median(lat) * 1000.0 if lat else 0.0
    values["bench.wall_ops_per_s"] = base["wall_ops_per_s"]
    values["bench.wall_p50_ms"] = base["wall_op_p50_ms"]
    values["bench.wall_p90_ms"] = base["wall_op_p90_ms"]
    values["bench.wall_setup_s"] = statistics.median(raw_setups)
    values["bench.reference_ms"] = base["reference_ms"]
    values["bench.self_s"] = traced["self_s"]
    values["bench.samples"] = summary["attempted"]
    values["bench.fail_ratio"] = summary["failed"] / summary["attempted"]
    values["bench.repeat_share"] = repeat_share(traced["records"])
    values["trace.overhead_pct"] = (base["ops_per_s"] / summary["ops_per_s"] - 1.0) * 100.0
    attempted = base["attempted"] + summary["attempted"]
    failed = base["failed"] + summary["failed"]
    return {k: (v, units[k]) for k, v in values.items()}, attempted, failed, notes


def print_table(workload: str, metrics: dict, notes: dict) -> None:
    print(f"== {workload}: {notes['samples']} ops sampled, {notes['beyond_p90']} beyond p90, "
          f"fail_ratio {notes['fail_ratio']:.4g}, setup median of {notes['setup_samples']} workers")
    if notes["truncated"]:
        print("  TRUNCATED: the wall-time limit stopped a run short of its minimum sample")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "semiorders", "__init__.py")):
        print(f"no package at {os.path.join(ROOT, 'src', 'semiorders')}; run from a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics_out: dict = {}
    attempted = failed = 0
    truncated = False
    for name in names:
        metrics, att, fail, notes = run_workload(name, args.seed, args.seconds, args.trace)
        print_table(name, metrics, notes)
        attempted += att
        failed += fail
        truncated |= notes["truncated"]
        prefix = "" if len(names) == 1 else f"{name}."
        for key, (value, unit) in metrics.items():
            metrics_out[prefix + key] = {"value": value, "unit": unit}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_out,
    }
    print(json.dumps(result))
    if failed:
        return 1
    return 3 if truncated else 0


if __name__ == "__main__":
    sys.exit(main())
