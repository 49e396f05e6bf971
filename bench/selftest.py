"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Checks that the certificate check rejects mutated certificates, that the
tracer sees every call of every wrapped function, that a tiny run of
every workload emits exactly the metrics BENCHMARK.json names, and that
the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from moutardkit.serialization import fraction_to_obj, obj_to_poly  # noqa: E402


def _example_output(ident: int) -> dict:
    _, status, stdout = run.run_process(["-m", "moutardkit", "example", str(ident)])
    assert status == 0, f"example {ident} exited with {status}"
    return json.loads(stdout)


class CertificateCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.obj = _example_output(1)
        cls.w = obj_to_poly(cls.obj["bundle"]["W"])

    def test_emitted_certificate_passes(self):
        self.assertIsNone(checks.certificate_error(self.w, self.obj["positivity"]))

    def test_lower_bound_above_w_at_centre_is_rejected(self):
        cert = copy.deepcopy(self.obj["positivity"])
        cell = cert["cells"][0]
        x_lo, x_hi, y_lo, y_hi = (checks._frac(v) for v in cell["box"])
        value = self.w.evaluate((x_lo + x_hi) / 2, (y_lo + y_hi) / 2)
        cell["lower_bound"] = fraction_to_obj(value + Fraction(1, 10**6))
        self.assertIn("below the cell's lower bound", checks.certificate_error(self.w, cert))

    def test_missing_cell_is_rejected(self):
        cert = copy.deepcopy(self.obj["positivity"])
        del cert["cells"][-1]
        self.assertIn("areas", checks.certificate_error(self.w, cert))

    def test_nonpositive_lower_bound_is_rejected(self):
        cert = copy.deepcopy(self.obj["positivity"])
        cert["cells"][0]["lower_bound"] = fraction_to_obj(Fraction(0))
        self.assertIn("<= 0", checks.certificate_error(self.w, cert))


class TracerWiringTest(unittest.TestCase):
    def test_tracer_sees_every_call(self):
        """Every call of an original function goes through its wrapper.

        A profiler counts calls of each original's code object, whatever
        name or binding the caller used; the tracer must count the same.
        """
        trace = tracer.Tracer()
        trace.install()
        watched = {fn.__code__: name for name, fn in trace.originals.items()}
        profiled = {name: 0 for name in trace.originals}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                profiled[watched[frame.f_code]] += 1

        from moutardkit import cli

        per_example = {}
        for ident in (1, 2):
            before = sum(1 for span in trace.spans if span[0] == "positivity.global_positivity")
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    self.assertEqual(cli.main(["example", str(ident)]), 0)
            finally:
                sys.setprofile(None)
            after = sum(1 for span in trace.spans if span[0] == "positivity.global_positivity")
            per_example[ident] = after - before
        traced = {name: entry["calls"] for name, entry in trace.summary()["layers"].items()}
        self.assertEqual(trace.missing, [])
        for name, count in profiled.items():
            self.assertEqual(traced[name], count, name)
        self.assertGreater(per_example[1], 0)
        self.assertGreater(per_example[2], 0)
        print(f"\nglobal_positivity calls: example 1 {per_example[1]}, example 2 {per_example[2]}")


class SmokeTest(unittest.TestCase):
    """Tiny runs of every workload in both modes."""

    def test_every_metric_is_emitted(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                        cwd=ROOT, capture_output=True, text=True, timeout=180,
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in spec[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".bench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "paper-examples",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            with contextlib.suppress(OSError):
                bare.parent.rmdir()


if __name__ == "__main__":
    unittest.main()
