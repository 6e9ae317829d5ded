"""Fast self-test of the benchmark code at tiny sizes.

    python3 benchmark/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the span wrappers are removed after a traced run (also when the run
raises), that wrapped and unwrapped operations give the same digest, and that
the benchmark refuses to run without the relsim sources.  It also checks that
every workload carries its recorded outputs and that an operation whose
outputs differ from them fails.  The file name keeps it out of the
repository's pytest collection.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from relsim.adversary import FractionalPolynomial, SpreadCrashes, UpfrontCrashes  # noqa: E402
from relsim.engine import RunConfig  # noqa: E402


def tiny(name: str, replay: bool = False) -> workloads.Workload:
    configs = (
        RunConfig(n=12, params=workloads.PARAMS, crash_pattern=UpfrontCrashes(), seed=3),
        RunConfig(n=8, params=workloads.PARAMS, model=FractionalPolynomial(0.5),
                  crash_pattern=SpreadCrashes(4), seed=4, max_rounds=5000),
    )
    return workloads.Workload(name, 1, configs, replay)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls._tmp = tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-")
        cls.scratch = Path(cls._tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def check_result(self, result: dict, declared: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            value = result["metrics"][m["name"]]
            self.assertEqual(value["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(value["value"]), m["name"])

    def test_declared_names_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOAD_NAMES))
        self.assertEqual([w["why"] for w in self.spec["workloads"]],
                         [workloads.WHY[w] for w in run.WORKLOAD_NAMES])
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in self.spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in self.spec["per_layer"]},
                         run.per_layer_units())

    def test_every_workload_builds_from_its_seed(self):
        for name in run.WORKLOAD_NAMES:
            first, again = workloads.build(name, 7), workloads.build(name, 7)
            self.assertEqual(first, again)
            self.assertNotEqual(first, workloads.build(name, 8))

    def test_recorded_outputs_are_attached_and_checked(self):
        for name in run.WORKLOAD_NAMES:
            self.assertEqual(set(workloads.build(name, 1).expected), {
                "T", "W", "M", "within", "numeric_live", "digest"})
        workload = tiny("lf-dense")
        good = workloads.outputs(workloads.execute(workload, self.scratch))
        again = workloads.execute(replace(workload, expected=good), self.scratch)
        self.assertEqual(again.failures, [])
        changed = workloads.execute(
            replace(workload, expected={**good, "W": good["W"] + 1}), self.scratch)
        self.assertEqual(len(changed.failures), 1)

    def test_end_to_end_metrics_are_all_emitted_and_nonzero(self):
        result = run.measure(tiny("small-many"), 0.01, False, self.scratch)
        self.check_result(result, self.spec["end_to_end"])
        for name, value in result["metrics"].items():
            self.assertGreater(value["value"], 0, name)

    def test_per_layer_metrics_are_all_emitted_and_wrappers_removed(self):
        before = spans.originals()
        result = run.measure(tiny("traced-replay", replay=True), 0.01, True, self.scratch)
        self.check_result(result, self.spec["per_layer"])
        self.assertTrue(all(a is b for a, b in zip(before, spans.originals())))
        metrics = result["metrics"]
        for span in spans.SPAN_NAMES:
            self.assertGreater(metrics[f"{span}.calls"]["value"], 0, span)
        total_share = sum(metrics[f"{s}.share"]["value"] for s in spans.SPAN_NAMES)
        self.assertLessEqual(total_share, 1.0)
        self.assertGreater(metrics["trace.bytes"]["value"], 0)

    def test_wrappers_removed_when_the_traced_run_raises(self):
        before = spans.originals()
        with self.assertRaises(ZeroDivisionError):
            with spans.SpanRecorder().installed():
                self.assertFalse(all(a is b for a, b in zip(before, spans.originals())))
                1 / 0
        self.assertTrue(all(a is b for a, b in zip(before, spans.originals())))

    def test_wrapped_and_unwrapped_digests_match(self):
        for workload in (tiny("lf-dense"), tiny("traced-replay", replay=True)):
            plain = workloads.execute(workload, self.scratch)
            recorder = spans.SpanRecorder()
            with recorder.installed():
                wrapped = workloads.execute(workload, self.scratch)
            recorder.drain()
            self.assertEqual(plain.failures, [])
            self.assertEqual(wrapped.failures, [])
            self.assertEqual(plain.digest, wrapped.digest)
            self.assertEqual(recorder.calls["engine.run"], 4 if workload.replay else 2)

    def test_self_time_subtracts_direct_children(self):
        recorder = spans.SpanRecorder()
        recorder._name.extend([0, 1, 1])
        recorder._parent.extend([-1, 0, 1])
        recorder._start.extend([0.0, 1.0, 2.0])
        recorder._end.extend([10.0, 5.0, 3.0])
        recorder.drain()
        self.assertEqual(recorder.self_s["engine.run"], 6.0)
        self.assertEqual(recorder.self_s["engine.deliver"], 4.0)
        self.assertEqual(recorder.calls["engine.deliver"], 2)

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, Path(bare) / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "benchmark/run.py", "--workload", "lf-dense",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
