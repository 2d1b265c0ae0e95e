#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
checks that the result line carries every end-to-end (untraced) or
per-layer (traced) metric with its unit, with all results correct.
Then plants a wrong reference hash and checks that the run fails.
Exit status 0 when every check passes.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, *extra):
    p = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None, p.stderr


class BenchmarkSmoke(unittest.TestCase):
    def check_metrics(self, workload, trace, kind):
        code, result, err = run(workload, trace)
        self.assertEqual(code, 0, err[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        for m in SPEC[kind]:
            self.assertIn(m["name"], result["metrics"])
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in SPEC[kind]})

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_metrics(w["name"], 0, "end_to_end")

    def test_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_metrics(w["name"], 1, "per_layer")

    def test_planted_wrong_hash_fails_the_run(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result, _ = run(w["name"], 0, "--plant-bad-hash")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
