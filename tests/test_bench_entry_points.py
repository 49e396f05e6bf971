"""The names the benchmark under bench/ reaches in the package still exist.

bench/tracer.py wraps functions by (module, class, attribute), and
bench/child.py generates its inputs through the search and harmonic
modules. Both are loaded here by path and only read: a name removed from
the package fails this test rather than only the benchmark's own
self-test.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load_bench_module(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    tracer = load_bench_module("tracer", monkeypatch)
    assert tracer.TARGETS
    for module_name, class_name, attr, span in tracer.TARGETS:
        owner = importlib.import_module(f"moutardkit.{module_name}")
        if class_name:
            owner = getattr(owner, class_name)
        # the tracer looks the attribute up in the owner's own namespace
        assert attr in vars(owner), span


@pytest.mark.parametrize("workload", WORKLOADS)
def test_input_generation_runs(workload, monkeypatch, tmp_path):
    child = load_bench_module("child", monkeypatch)
    assert child.gen(workload, 0, 1, str(tmp_path)) == 0
    inputs = json.loads((tmp_path / "inputs.json").read_text(encoding="utf-8"))
    assert inputs["workload"] == workload
    assert inputs["rounds"] and all(inputs["rounds"])
