#!/usr/bin/env python3
"""The wall-clock benchmark's own test.

    python3 wallbench/test_run.py

Runs every workload smoke-sized (one pass over a query subset, or two
serving churn cycles), untraced and traced, and checks the result
contract: the last stdout line is the JSON result, it names exactly the
metrics BENCHMARK.json lists for that mode, every op was correct, and the
summed simulated cycles repeat exactly between the two runs. Then checks
that, from a directory holding only BENCHMARK.json and wallbench/, the
benchmark exits non-zero without printing a result.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_build", "wallbench", "results")


def run_benchmark(cwd, workload, trace, smoke=True):
    argv = [sys.executable, os.path.join(cwd, "wallbench", "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def run_mode(self, workload, trace):
        before = set(glob.glob(os.path.join(RESULTS, "*.json")))
        proc = run_benchmark(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        key = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in self.bench[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        records = set(glob.glob(os.path.join(RESULTS, "*.json"))) - before
        self.assertEqual(len(records), 1)
        with open(records.pop()) as f:
            return result, json.load(f)

    def test_every_workload_untraced_and_traced(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                plain, plain_record = self.run_mode(w["name"], 0)
                for name, m in plain["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                traced, traced_record = self.run_mode(w["name"], 1)
                self.assertGreater(plain_record["sim_cycles"], 0)
                self.assertEqual(plain_record["sim_cycles"],
                                 traced_record["sim_cycles"])
                self.assertEqual(
                    traced["metrics"]["sim.elapsed_cycles"]["value"],
                    plain_record["sim_cycles"])

    def test_refuses_to_run_without_the_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "wallbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_benchmark(tmp, "tpch-scs", 0, smoke=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
