"""The benchmark's own tests.

Usage, from the root of the checkout (about two minutes on 2 CPUs):
    python3 perfbench/selftest.py

- Every traced workload shows zero and non-zero call counts exactly where
  baseline.json's call_pattern (the prediction table) says; a wrapper that
  missed a binding shows up as a zero that should not be.
- Nested spans split self time correctly, spans inside the benchmark's own
  regions are left out, no self time or untraced remainder is negative, and
  a library workload's spans fit inside its measured set-up and query time.
- A deliberately wrong expectation raises failed_frac instead of crashing
  the run, and a wrong recorded digest makes the run incorrect.
- The metric names and units printed match BENCHMARK.json.
"""
from __future__ import annotations

import json
import time
import unittest

import run
from tracer import Tracer

SEED = 3


def _runner() -> run.Runner:
    return run.Runner(time.monotonic() + run.DEADLINE_S)


class TracedCallPattern(unittest.TestCase):
    traced: dict = {}

    @classmethod
    def setUpClass(cls):
        baseline = run.load_baseline()
        for name in run.WORKLOADS:
            if name == "cli-cold":
                cls.traced[name] = run.trace_cli(_runner(), SEED, 1.0, baseline)
            else:
                cls.traced[name] = run.trace_library(_runner(), name, SEED, 1.0, baseline)

    def test_call_pattern_matches_predictions(self):
        pattern = run.load_baseline()["call_pattern"]
        for metric, where in pattern.items():
            for name in where["nonzero"]:
                with self.subTest(metric=metric, workload=name):
                    self.assertGreater(self.traced[name]["layers"][metric], 0)
            for name in where["zero"]:
                with self.subTest(metric=metric, workload=name):
                    self.assertEqual(self.traced[name]["layers"][metric], 0)

    def test_span_times_fit_inside_measured_time(self):
        for name, res in self.traced.items():
            layers = res["layers"]
            with self.subTest(workload=name):
                self.assertGreaterEqual(layers["trace.remainder_s"], 0)
                for metric, value in layers.items():
                    if metric.endswith(".self_s"):
                        self.assertGreaterEqual(value, -1e-9, metric)
                self.assertGreater(layers["trace.overhead_ratio"], 0)
                if name != "cli-cold":
                    # spans outside the benchmark's own regions run in set-up or inside a query
                    self.assertLessEqual(res["top_level_s"], res["traced_setup_query_s"])

    def test_only_known_defects_fail(self):
        for name, res in self.traced.items():
            with self.subTest(workload=name):
                self.assertEqual(res["failed"], res["known_failed"], res["failures"][:3])
                self.assertTrue(res["digest_ok"])
        self.assertGreater(self.traced["cli-cold"]["known_failed"], 0)


class TracerAccounting(unittest.TestCase):
    def test_nested_regions_split_self_time(self):
        tr = Tracer()
        with tr.region("t.outer"):
            time.sleep(0.02)
            with tr.region("t.inner"):
                time.sleep(0.03)
        with tr.region("bench.skipped"):
            with tr.region("t.inner"):
                time.sleep(0.01)
        s = tr.summary()
        outer, inner = s["per_name"]["t.outer"], s["per_name"]["t.inner"]
        self.assertEqual((outer["calls"], inner["calls"]), (1, 1))
        self.assertNotIn("bench.skipped", s["per_name"])
        self.assertAlmostEqual(inner["self_s"], inner["total_s"])
        self.assertGreaterEqual(inner["total_s"], 0.03)
        self.assertAlmostEqual(outer["self_s"], outer["total_s"] - inner["total_s"])
        self.assertGreaterEqual(outer["self_s"], 0.02)
        self.assertLess(outer["self_s"], 0.03)
        self.assertAlmostEqual(s["top_level_s"], outer["total_s"])


class FailureAccounting(unittest.TestCase):
    def test_wrong_expectation_counts_as_failed(self):
        res = _runner().worker({"workload": "group-criteria", "seed": SEED, "seconds": 0.1,
                                "min_queries": 1, "mode": "run", "flip": 2})
        self.assertGreaterEqual(res["attempted"], 15)
        self.assertEqual(res["failed"], 2)
        self.assertIn("check failed", res["failures"][0]["error"])

    def test_wrong_digest_makes_run_incorrect(self):
        baseline = dict(run.load_baseline(), digests={"group-criteria": "0" * 64})
        result, lines = run.run_workload(_runner(), "group-criteria", run.DEFAULT_SEED, 0.1, False, baseline)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertTrue(any("differs from the recorded one" in line for line in lines))


class MetricNames(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        with open(run.ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         run.per_layer_spec())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
