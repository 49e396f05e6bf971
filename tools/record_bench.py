"""Record a benchmark file: alternating parent/change pairs plus in-process counts.

    python3 tools/record_bench.py PARENT [--seeds A-B] --out BENCH_<n>.json

Run from the root of a git checkout; stdlib only. PARENT and HEAD are
exported with `git archive` into a temporary directory, so both sides
run their committed files with the same benchmark settings.
For every seed in A..B (default 0-9; two or more) and every workload in
BENCHMARK.json, `bench/run.py --trace 0` runs once on each side, the side
that runs first flipping from seed to seed, for BENCHMARK.json's
`run_seconds`. The first seed is also run once per side at `--trace 1`.
Then each side times the IN_PROCESS calls in its own interpreters,
alternating sides, and counts `positivity._BoxTree.bounds` calls; the
count and the hash of each call's output must repeat exactly within a
side. One more call per interpreter, untimed, runs under tracemalloc for
its peak of traced memory. The output
has the layout of BENCH_17.json: `runs`, `pairs`, `counts` and
`in_process_s`, whose entries also hold `tracemalloc_peak_mib` and
`change_better`, the interpreter pairs whose change median beats the
parent's; quartiles are statistics.quantiles(n=4, method='inclusive').
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
PROCESSES = 12  # in-process interpreters per side
REPEATS = 7  # calls of each in-process workload per interpreter

# (function, its arguments as Python source in the child's namespace):
# the box-tree workloads, the L2 oracle, and the residual oracle on a
# uniform grid and on 25 centres with unrelated denominators
IN_PROCESS = [
    ("verify_example_full", "1"),
    ("verify_example_full", "2"),
    ("sweep", "2, 0, 6"),
    ("sweep", "3, 0, 6"),
    ("sweep", "4, 0, 3"),
    ("sweep", "5, 1, 6"),
    ("sweep", "6, 0, 4"),
    ("numeric_l2_norm", "get_example(1).reference.psi1, 12, 128, 128"),
    (
        "numeric_residual",
        "get_example(1).reference.u, get_example(1).reference.psi1, uniform_grid(-2, 1, -3, 0, 9), Fraction(1, 1000)",
    ),
    (
        "numeric_residual",
        "get_example(1).reference.u, get_example(1).reference.psi1, "
        "[(Fraction(300 * k - 3601, 1009 + 397 * k), Fraction(-250 * k - 1, 991 + 401 * k)) for k in range(25)], "
        "Fraction(1, 1000)",
    ),
]

# run in a fresh interpreter on one side's src/; prints one JSON object
IN_PROCESS_CHILD = r"""
import hashlib, json, sys, time, tracemalloc
from fractions import Fraction
from moutardkit import positivity
from moutardkit.gallery import get_example
from moutardkit.numeric import numeric_l2_norm, numeric_residual, uniform_grid
from moutardkit.search import sweep, verify_example_full

calls = [0]
bounds = positivity._BoxTree.bounds

def counted(self, *args):
    calls[0] += 1
    return bounds(self, *args)

positivity._BoxTree.bounds = counted

def canonical(out):
    if isinstance(out, float):  # a residual
        return out
    if isinstance(out, list):  # a sweep's records
        return [record.to_obj() for record in out]
    if hasattr(out, "to_obj"):  # an L2Estimate
        return out.to_obj()
    report, certificate = out
    return [report.record.to_obj(), certificate.to_obj()]

result = {}
for name, source in json.loads(sys.argv[1]):
    function, args = globals()[name], eval(f"({source},)")
    times, counts, digests = [], set(), set()
    for _ in range(int(sys.argv[2])):
        calls[0] = 0
        start = time.perf_counter()
        out = function(*args)
        times.append(time.perf_counter() - start)
        counts.add(calls[0])
        digests.add(hashlib.sha256(json.dumps(canonical(out), sort_keys=True).encode()).hexdigest())
    tracemalloc.start()
    function(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    result[f"{name}({source})"] = {
        "times": times, "counts": sorted(counts), "digests": sorted(digests), "peak_bytes": peak
    }
print(json.dumps(result))
"""


def pair_order(keys):
    """(key, side) in run order: each key's two sides back to back, the side
    that runs first flipping from key to key, parent first on the first."""
    order = []
    for n, key in enumerate(keys):
        sides = SIDES if n % 2 == 0 else SIDES[::-1]
        order.extend((key, side) for side in sides)
    return order


def summary(values):
    """First quartile, median and third quartile of values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent, change, better):
    """(pairs the change wins, ties) over aligned per-seed values."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return wins, sum(p == c for p, c in zip(parent, change))


def parse_seeds(text):
    """The seeds A..B of "A-B"; the quartiles of a side need two or more."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"seed range {text!r} has fewer than two seeds")
    return seeds


def git(*args, cwd=None):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def bench(tree, workload, seed, seconds, trace):
    """The final JSON line of one bench/run.py run, plus its output hash."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"record_bench: {workload} seed {seed} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    run = {"final_line": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("output_sha256 "):
            run["output_sha256"] = line.split()[1]
    return run


def in_process(tree):
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", IN_PROCESS_CHILD, json.dumps(IN_PROCESS), str(REPEATS)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"record_bench: in-process run in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def in_process_entry(name, runs):
    """(`bounds` count per side, `in_process_s` entry) of one IN_PROCESS
    workload from each side's interpreter results, listed in pair order;
    exits unless the count and the output hash repeat within each side.
    `change_better` counts the interpreter pairs whose change median is
    below the parent's."""
    counts = {side: {n for run in runs[side] for n in run["counts"]} for side in SIDES}
    digests = {side: {d for run in runs[side] for d in run["digests"]} for side in SIDES}
    if any(len(counts[side]) != 1 or len(digests[side]) != 1 for side in SIDES):
        sys.exit(f"record_bench: {name} did not repeat its count or output: {counts} {digests}")
    times = {side: [t for run in runs[side] for t in run["times"]] for side in SIDES}
    pair_medians = {side: [statistics.median(run["times"]) for run in runs[side]] for side in SIDES}
    return {side: counts[side].pop() for side in SIDES}, {
        **times,
        "median": {side: statistics.median(times[side]) for side in SIDES},
        "change_better": compare(pair_medians["parent"], pair_medians["change"], "lower")[0],
        "output_sha256": {side: digests[side].pop() for side in SIDES},
        "tracemalloc_peak_mib": {side: [run["peak_bytes"] / 2**20 for run in runs[side]] for side in SIDES},
    }


def record(trees, commits, seeds, spec):
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out = {
        "about": __doc__.split("\n\n", 2)[2].replace("\n", " ").strip(),
        "commits": commits,
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "seed": seeds[0],
        "seconds": seconds,
        "runs": {},
        "pairs": {},
        "counts": {},
        "in_process_s": {},
    }
    for workload in workloads:
        runs = {}
        for seed, side in pair_order(seeds):
            print(f"record_bench: {workload} seed {seed} {side}", file=sys.stderr, flush=True)
            runs[seed, side] = bench(trees[side], workload, seed, seconds, 0)
        out["runs"][workload] = {
            "trace_0": {side: runs[seeds[0], side] for side in SIDES},
            "trace_1": {side: bench(trees[side], workload, seeds[0], seconds, 1) for side in SIDES},
        }
        pairs = {"seeds": seeds, "order": [f"{seed}:{side}" for seed, side in pair_order(seeds)]}
        for metric, better in metrics.items():
            values = {side: [runs[seed, side]["final_line"]["metrics"][metric]["value"] for seed in seeds]
                      for side in SIDES}
            wins, ties = compare(values["parent"], values["change"], better)
            pairs[metric] = {
                **values,
                "parent_summary": summary(values["parent"]),
                "change_summary": summary(values["change"]),
                "change_better": wins,
                "ties": ties,
            }
        pairs["output_sha256_equal"] = all(
            runs[seed, "parent"].get("output_sha256") == runs[seed, "change"].get("output_sha256") for seed in seeds
        )
        pairs["failed"] = sum(run["final_line"]["failed"] for run in runs.values())
        pairs["attempted"] = sum(run["final_line"]["attempted"] for run in runs.values())
        out["pairs"][workload] = pairs
    timings = {side: [] for side in SIDES}
    for _, side in pair_order(range(PROCESSES)):
        print(f"record_bench: in process {side}", file=sys.stderr, flush=True)
        timings[side].append(in_process(trees[side]))
    for name in timings["parent"][0]:
        count, out["in_process_s"][name] = in_process_entry(
            name, {side: [run[name] for run in timings[side]] for side in SIDES}
        )
        out["counts"][f"_BoxTree.bounds calls, {name} in process"] = count
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent commit")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"), help="seed range A-B")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    with tempfile.TemporaryDirectory(prefix="record-bench-") as tmp:
        trees = {side: str(Path(tmp, side)) for side in SIDES}
        for side in SIDES:
            archive = subprocess.run(["git", "archive", commits[side]], check=True, capture_output=True).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(trees[side])
        spec = json.loads(Path(trees["change"], "BENCHMARK.json").read_text(encoding="utf-8"))
        result = record(trees, commits, args.seeds, spec)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
