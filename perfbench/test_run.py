#!/usr/bin/env python3
"""Self-test of the repo benchmark at tiny P (LU and CG on 16 ranks).

    python3 perfbench/test_run.py

Checks that every workload and every traced run completes, that each
metric named in BENCHMARK.json is printed with its unit, and that a
deliberately corrupted output is counted as a failed op, not accepted.
The first test builds into .bench_build/ when no build is there yet.
"""
import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, *extra):
    """Run the benchmark at tiny scale; returns (exit code, result, report)."""
    r = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError(f"no result (exit {r.returncode}):\n{r.stderr}")
    return (r.returncode, json.loads(lines[-1]),
            json.loads(lines[-2])["report"])


class BenchmarkSelfTest(unittest.TestCase):

    def check_metrics(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, report = bench(w, 0)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 3)
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
                if w in ("trace-lu", "merge-cg", "analyze-cg-query"):
                    self.assertIn("callsites src=",
                                  report["inputs"]["callsites"])
                host = report["host"]
                self.assertGreaterEqual(host["hardware_concurrency"], 1)
                self.assertNotEqual(host["build_type"], "Debug")

    def test_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, report = bench(w, 1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.check_metrics(result, SPEC["per_layer"])
                self.assertIn("tracing_overhead_s", report)
                # The workload's own layers were exercised.
                own = {"trace-lu": "vm.instructions",
                       "merge-cg": "cypress.rank_loads",
                       "analyze-cg-replay": "query.cursor_events",
                       "analyze-cg-stats": "cypress.decompressed_events",
                       "analyze-cg-query": "query.callsites_s"}[w]
                self.assertGreater(result["metrics"][own]["value"], 0)
                # Start-up and teardown of the op's own traced process.
                self.assertGreater(result["metrics"]["other_s"]["value"], 0)

    def test_corrupted_output_counts_as_failed(self):
        # The first op is checked against the oracle alone; later ops
        # also against the first op's output.
        for w in WORKLOADS:
            for op in (1, 2):
                with self.subTest(workload=w, op=op):
                    code, result, report = bench(w, 0, "--corrupt-op",
                                                 str(op))
                    self.assertNotEqual(code, 0)
                    self.assertFalse(result["correct"])
                    self.assertEqual(result["failed"], 1)
                    self.assertLess(
                        result["metrics"]["ops_ok_frac"]["value"], 1)
                    self.assertEqual(len(report["loop"]["failures"]), 1)
                    self.assertFalse(report["op_samples"][op - 1]["ok"])


if __name__ == "__main__":
    unittest.main()
