"""The benchmark recorder's pure helpers: run order, quartiles, pair wins."""

import argparse
import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "record_bench.py"
spec = importlib.util.spec_from_file_location("record_bench", TOOL)
record_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_bench)


def test_pair_order_alternates_the_side_that_runs_first():
    order = record_bench.pair_order([7, 8, 9])
    assert order == [
        (7, "parent"), (7, "change"),
        (8, "change"), (8, "parent"),
        (9, "parent"), (9, "change"),
    ]


@pytest.mark.parametrize("n", [1, 2, 10, 11])
def test_pair_order_runs_each_side_once_per_key_back_to_back(n):
    order = record_bench.pair_order(range(n))
    assert [key for key, _ in order] == [k for k in range(n) for _ in range(2)]
    assert all({order[2 * k][1], order[2 * k + 1][1]} == {"parent", "change"} for k in range(n))
    firsts = [order[2 * k][1] for k in range(n)]
    assert firsts.count("parent") - firsts.count("change") in (0, 1)


def test_summary_quartiles_are_inclusive():
    assert record_bench.summary([5, 1, 4, 2, 3]) == {"q1": 2, "median": 3, "q3": 4}
    assert record_bench.summary([1, 2, 3, 4]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}


def test_compare_counts_wins_by_direction_and_ties():
    parent, change = [1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0]
    assert record_bench.compare(parent, change, "higher") == (2, 1)
    assert record_bench.compare(parent, change, "lower") == (1, 1)


def test_parse_seeds():
    assert record_bench.parse_seeds("3-6") == [3, 4, 5, 6]
    assert record_bench.parse_seeds("5-6") == [5, 6]
    # a side's quartiles need two seeds
    for text in ("6-3", "5", "5-5"):
        with pytest.raises(argparse.ArgumentTypeError):
            record_bench.parse_seeds(text)
    # so --seeds 5 stops at the command line, before any run
    with pytest.raises(SystemExit) as exit_info:
        record_bench.main(["HEAD", "--seeds", "5", "--out", "unused.json"])
    assert exit_info.value.code == 2


def test_recorder_is_stdlib_only():
    tree = ast.parse(TOOL.read_text(encoding="utf-8"))
    modules = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert modules - {"__future__"} <= set(sys.stdlib_module_names)


def test_in_process_child_repeats_the_l2_oracle():
    entry = ("numeric_l2_norm", "get_example(1).reference.psi1, 12, 128, 128")
    assert entry in record_bench.IN_PROCESS
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", record_bench.IN_PROCESS_CHILD, json.dumps([entry]), "2"],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout)["numeric_l2_norm(get_example(1).reference.psi1, 12, 128, 128)"]
    assert len(result["times"]) == 2
    assert len(result["counts"]) == 1 and result["counts"][0] > 0
    assert len(result["digests"]) == 1


def test_in_process_child_repeats_the_residual_oracle():
    entry = (
        "numeric_residual",
        "get_example(1).reference.u, get_example(1).reference.psi1, uniform_grid(-2, 1, -3, 0, 9), Fraction(1, 1000)",
    )
    assert entry in record_bench.IN_PROCESS
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", record_bench.IN_PROCESS_CHILD, json.dumps([entry]), "2"],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout)[f"{entry[0]}({entry[1]})"]
    # the residual makes no positivity call
    assert len(result["times"]) == 2 and result["counts"] == [0]
    assert len(result["digests"]) == 1


def test_in_process_child_repeats_the_residual_on_unrelated_denominators():
    # 25 centres with unrelated denominators, where one common
    # denominator for the whole grid would grow large
    (entry,) = [e for e in record_bench.IN_PROCESS if e[0] == "numeric_residual" and "uniform_grid" not in e[1]]
    assert "for k in range(25)" in entry[1]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", record_bench.IN_PROCESS_CHILD, json.dumps([entry]), "2"],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout)[f"{entry[0]}({entry[1]})"]
    assert len(result["times"]) == 2 and result["counts"] == [0]
    assert len(result["digests"]) == 1


def test_in_process_child_records_the_peak_of_one_untimed_call():
    assert ("sweep", "6, 0, 4") in record_bench.IN_PROCESS
    entry = ("verify_example_full", "1")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", record_bench.IN_PROCESS_CHILD, json.dumps([entry]), "2"],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout)["verify_example_full(1)"]
    # two timed calls; the traced third leaves the per-call count alone
    assert len(result["times"]) == 2 and result["counts"] == [11]
    assert isinstance(result["peak_bytes"], int) and result["peak_bytes"] > 0


def interpreter_run(times, count, digest, peak_bytes):
    return {"times": times, "counts": [count], "digests": [digest], "peak_bytes": peak_bytes}


def test_in_process_entry_pools_times_and_keeps_each_interpreter_peak():
    runs = {
        "parent": [interpreter_run([3.0, 1.0], 7, "a", 2**20), interpreter_run([2.0], 7, "a", 2**21)],
        "change": [interpreter_run([1.0, 0.5], 4, "a", 2**19), interpreter_run([0.25], 4, "a", 2**19)],
    }
    counts, entry = record_bench.in_process_entry("w", runs)
    assert counts == {"parent": 7, "change": 4}
    assert entry["parent"] == [3.0, 1.0, 2.0] and entry["median"] == {"parent": 2.0, "change": 0.5}
    assert entry["output_sha256"] == {"parent": "a", "change": "a"}
    assert entry["tracemalloc_peak_mib"] == {"parent": [1.0, 2.0], "change": [0.5, 0.5]}
    assert entry["change_better"] == 2


def test_in_process_entry_counts_the_pairs_whose_change_median_is_lower():
    # pair medians: parent 2, 5, 4 and change 3, 1, 4 (a tie counts for neither)
    runs = {
        "parent": [interpreter_run(times, 7, "a", 1) for times in ([1.0, 2.0, 9.0], [5.0], [4.0, 4.0])],
        "change": [interpreter_run(times, 7, "a", 1) for times in ([3.0], [0.5, 1.0, 8.0], [4.0])],
    }
    assert record_bench.in_process_entry("w", runs)[1]["change_better"] == 1



def test_in_process_entry_exits_when_a_count_does_not_repeat():
    runs = {
        "parent": [interpreter_run([1.0], 7, "a", 1), interpreter_run([1.0], 8, "a", 1)],
        "change": [interpreter_run([1.0], 4, "a", 1)],
    }
    with pytest.raises(SystemExit):
        record_bench.in_process_entry("w", runs)
