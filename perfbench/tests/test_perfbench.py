#!/usr/bin/env python3
"""Tests of the benchmark itself, run in --short mode (about two minutes).

    python3 perfbench/tests/test_perfbench.py

- every metric BENCHMARK.json names is printed with its unit, in an
  untraced run of each workload and in a traced run;
- a deliberately corrupted output raises error_rate above 0 on every
  workload.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# Every workload the binary runs; BENCHMARK.json gates these or a subset.
WORKLOADS = ["table2-compile", "infer-googlenet", "serve-seqcnn"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, *extra, trace=0):
    cmd = load_spec()["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--short", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    assert proc.returncode == 0, \
        f"{cmd} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


class BenchmarkTest(unittest.TestCase):
    spec = load_spec()

    def assert_metrics(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        printed = result["metrics"]
        self.assertEqual(set(printed), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(printed[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed[m["name"]]["value"], (int, float))

    def test_every_metric_printed_with_unit(self):
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]},
                             set(WORKLOADS))
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, out = run(w)
                self.assert_metrics(result, self.spec["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertIn("fingerprint:", out)
                self.assertIn("error_rate", out)
                for v in result["metrics"].values():
                    self.assertGreater(v["value"], 0)

    def test_traced_run_prints_per_layer_metrics(self):
        result, out = run("serve-seqcnn", trace=1)
        self.assert_metrics(result, self.spec["per_layer"])
        self.assertTrue(result["correct"])
        self.assertIn("tracing overhead", out)

    def test_corrupted_output_raises_error_rate(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = run(w, "--corrupt")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    sys.exit(unittest.main())
