"""The moutardkit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see bench/README.md):

    sweep-d3        moutardkit search --degree 3, one trial per call
    paper-examples  moutardkit example 1 and 2, plus the numeric oracles
    construct-d5    moutardkit transform on random degree-5 harmonic pairs

Inputs come from the seed.  A workload's inputs form a pool of rounds,
sized so that its fixed number of cycles over the pool takes about S
seconds at the speed of the commit that defined the benchmark.  Every
item is one fresh interpreter, run one at a time, and its output is
checked by `checks.py`.  Each input is timed at its fastest cycle: on a
shared machine one run of an item can take twice as long as the next,
and the fastest of several runs spread over the whole run filters that
interference out.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a fixed prefix
of the pool twice per item, untraced and under `tracer.py`, and reports
per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# seconds one round took at the commit that defined the benchmark, and either
# the cycles over the pool (the pool then fills the run) or a fixed pool
SHAPES = {
    "sweep-d3": {"round_s": 2.7, "cycles": 2},
    "paper-examples": {"round_s": 2.3, "rounds": 1},
    "construct-d5": {"round_s": 1.4, "cycles": 3},
}
WORKLOADS = tuple(SHAPES)
TRACE_SHARE = 3  # the traced prefix is a third of the pool, at least one round
SETUP_REPEATS = 11
ITEM_TIMEOUT_S = 120

PER_LAYER_CALLS = [
    "polynomials.mul",
    "polynomials.div_exact",
    "sturm.count_real_roots",
    "positivity.global_positivity",
    "search.min_positive_constant",
    "moutard.verify_solution",
]
PER_LAYER_COUNTERS = {
    "positivity.global_positivity.certified": "count",
    "positivity.global_positivity.refuted": "count",
    "positivity.global_positivity.inconclusive": "count",
    "positivity.cells": "count",
    "positivity.boxes": "count",
    "positivity.max_depth": "count",
    "serialization.dumps.bytes": "B",
}


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list, timeout: float = ITEM_TIMEOUT_S):
    """(wall seconds, exit status, stdout) of one child interpreter."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, -1, b""
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace")[-2000:])
    return elapsed, proc.returncode, proc.stdout


def item_argv(item: dict, trace_out: str | None = None) -> list:
    prefix = ["--trace-out", trace_out] if trace_out else []
    if item["kind"] == "oracle":
        return [str(BENCH_DIR / "child.py"), *prefix, "oracle", *item["args"]]
    if trace_out:
        return [str(BENCH_DIR / "child.py"), *prefix, "cli", *item["args"]]
    return ["-m", "moutardkit", *item["args"]]


def shape(workload: str, seconds: int):
    """(rounds in the pool, cycles over it) for a run of about `seconds`."""
    spec = SHAPES[workload]
    if "rounds" in spec:
        rounds = spec["rounds"]
        return rounds, max(1, round(seconds / (rounds * spec["round_s"])))
    cycles = spec["cycles"]
    return max(1, round(seconds / (cycles * spec["round_s"]))), cycles


def setup(workload: str, seed: int, rounds: int, work: Path, repeats: int):
    """Median wall time of generating the inputs in a fresh interpreter."""
    argv = [str(BENCH_DIR / "child.py"), "gen", workload, str(seed), str(rounds), str(work)]
    times = []
    for _ in range(repeats):
        elapsed, status, _ = run_process(argv)
        if status != 0:
            die(f"generating inputs for {workload} failed with status {status}")
        times.append(elapsed)
    with open(work / "inputs.json", encoding="utf-8") as fh:
        pool = json.load(fh)["rounds"]
    return statistics.median(times), pool


class Outputs:
    """Output bytes and SHA-256 of a fixed sequence of items."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.items = 0
        self.bytes = 0

    def add(self, stdout: bytes) -> None:
        self.digest.update(len(stdout).to_bytes(8, "big"))
        self.digest.update(stdout)
        self.items += 1
        self.bytes += len(stdout)


def run_item(item: dict, trace_out: str | None = None):
    """(wall seconds, stdout, failure reason or None) of one checked item."""
    import checks  # imports moutardkit, importable once main put src/ on the path

    elapsed, status, stdout = run_process(item_argv(item, trace_out))
    return elapsed, stdout, checks.output_error(item["kind"], status, stdout)


def timed_run(pool: list, cycles: int) -> dict:
    """`cycles` untraced passes over the pool; each input keeps its fastest time."""
    items = [item for round_items in pool for item in round_items]
    fastest = [math.inf] * len(items)
    verified = [True] * len(items)
    attempted = failed = 0
    first_cycle = Outputs()
    for cycle in range(cycles):
        for index, item in enumerate(items):
            elapsed, stdout, error = run_item(item)
            fastest[index] = min(fastest[index], elapsed)
            attempted += 1
            if error is not None:
                failed += 1
                verified[index] = False
                print(f"FAILED {item['label']}: {error}", file=sys.stderr)
            if cycle == 0:
                first_cycle.add(stdout)
    return {
        "attempted": attempted,
        "failed": failed,
        "items_per_s": sum(verified) / sum(fastest),
        "first_cycle": first_cycle,
    }


def _add_summary(total: dict, summary: dict) -> None:
    for name, entry in summary["layers"].items():
        layer = total["layers"].setdefault(name, {"calls": 0, "self_s": 0.0})
        layer["calls"] += entry["calls"]
        layer["self_s"] += entry["self_s"]
    for name, value in summary["counters"].items():
        if name == "positivity.max_depth":
            total["counters"][name] = max(total["counters"].get(name, 0), value)
        else:
            total["counters"][name] = total["counters"].get(name, 0) + value
    for name in summary["missing"]:
        if name not in total["missing"]:
            total["missing"].append(name)


def traced_pass(prefix: list, work: Path):
    """One pass over the traced prefix: each item untraced, then traced."""
    total = {"layers": {}, "counters": {}, "missing": []}
    untraced_s = traced_s = 0.0
    attempted = failed = 0
    per_item = []
    trace_file = str(work / "trace.json")
    for round_items in prefix:
        for item in round_items:
            plain_s, plain_out, plain_error = run_item(item)
            traced_item_s, traced_out, traced_error = run_item(item, trace_file)
            untraced_s += plain_s
            traced_s += traced_item_s
            attempted += 1
            error = plain_error or traced_error
            if error is None and plain_out != traced_out:
                error = "traced output differs from untraced output"
            if error is not None:
                failed += 1
                print(f"FAILED {item['label']}: {error}", file=sys.stderr)
                continue
            with open(trace_file, encoding="utf-8") as fh:
                summary = json.load(fh)
            _add_summary(total, summary)
            calls = summary["layers"]["positivity.global_positivity"]["calls"]
            per_item.append(f"{item['label']}:{calls}")
    return {
        "total": total,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "attempted": attempted,
        "failed": failed,
        "per_item": per_item,
    }


def count_metrics(total: dict) -> dict:
    """Exact counts of one pass; they repeat for a fixed input."""
    layers, counters = total["layers"], total["counters"]

    def calls(name: str) -> int:
        return layers.get(name, {"calls": 0})["calls"]

    values = {f"{name}.calls": (calls(name), "count") for name in PER_LAYER_CALLS}
    for name, unit in PER_LAYER_COUNTERS.items():
        values[name] = (counters.get(name, 0), unit)
    positivity_calls = calls("positivity.global_positivity")
    distinct = counters.get("positivity.global_positivity.distinct", 0)
    values["positivity.global_positivity.distinct_ratio"] = (
        distinct / positivity_calls if positivity_calls else 0.0,
        "ratio",
    )
    bisections = calls("search.min_positive_constant")
    nested = counters.get("positivity.global_positivity.nested_in_search", 0)
    values["search.probes_per_trial"] = (nested / bisections if bisections else 0.0, "count")
    return values


def traced_run(prefix: list, seconds: int, work: Path) -> dict:
    """Whole passes over the prefix while another fits in `seconds`."""
    start = time.perf_counter()
    passes = []
    while True:
        pass_start = time.perf_counter()
        passes.append(traced_pass(prefix, work))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    counts = count_metrics(passes[0]["total"])
    repeat_ok = all(count_metrics(p["total"]) == counts for p in passes[1:])
    metrics = dict(counts)
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}.self_s"] = (
            statistics.median(
                p["total"]["layers"].get(name, {"self_s": 0.0})["self_s"] for p in passes
            ),
            "s",
        )
    untraced = sum(p["untraced_s"] for p in passes)
    metrics["trace_overhead_ratio"] = (sum(p["traced_s"] for p in passes) / untraced, "ratio")
    return {
        "metrics": metrics,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "passes": len(passes),
        "repeat_ok": repeat_ok,
        "missing": passes[0]["total"]["missing"],
        "per_item": passes[0]["per_item"],
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        die("--seconds must be at least 1")
    if not (SRC / "moutardkit" / "__init__.py").is_file():
        die(f"no moutardkit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))

    work_parent = ROOT / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        rounds, cycles = shape(args.workload, args.seconds)
        repeats = 1 if args.trace else SETUP_REPEATS
        setup_s, pool = setup(args.workload, args.seed, rounds, work, repeats)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
              f"trace {args.trace} rounds {rounds} cycles {cycles}")
        if args.trace:
            prefix = pool[: max(1, len(pool) // TRACE_SHARE)]
            run = traced_run(prefix, args.seconds, work)
            print(f"passes {run['passes']} over {sum(map(len, prefix))} items; "
                  f"global_positivity calls per item {' '.join(run['per_item'])}")
            if run["missing"]:
                print(f"not found, reported as 0: {' '.join(run['missing'])}")
            if not run["repeat_ok"]:
                print("FAILED counts differ between passes over the same items", file=sys.stderr)
            correct = run["failed"] == 0 and run["repeat_ok"]
            emit(correct, run["attempted"], run["failed"], run["metrics"])
            return 0
        run = timed_run(pool, cycles)
        first = run["first_cycle"]
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(f"attempted {run['attempted']} failed {run['failed']}")
        print(f"fail_ratio {run['failed'] / run['attempted']} ratio")
        print(f"output_sha256 {first.digest.hexdigest()} over the first cycle ({first.items} items)")
        metrics = {
            "items_per_s": (run["items_per_s"], "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (peak_kib / 1024, "MiB"),
            "output_bytes": (first.bytes / first.items, "B"),
        }
        emit(run["failed"] == 0, run["attempted"], run["failed"], metrics)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
