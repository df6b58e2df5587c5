#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload at the tiny size under two seeds, untraced and
traced, and checks that the last line is the result JSON, that every
metric BENCHMARK.json names is there with its unit, that no validation
failed, and that end-to-end values are positive.

    python3 perfbench/test_run.py      (from the root of the repository)
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SEEDS = (1, 7)

with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--size", "tiny"]
    out = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, timeout=300)
    return out.returncode, out.stdout


class BenchmarkSmoke(unittest.TestCase):
    def check(self, workload, seed, trace):
        code, stdout = run(workload, seed, trace)
        self.assertEqual(code, 0, stdout[-2000:])
        lines = stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines[-1])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        # The human-readable report names every metric with its unit and
        # sample count, and stamps the host.
        text = "\n".join(lines[:-1])
        self.assertIn("host cpus=", text)
        for m in wanted:
            self.assertIn("%s = " % m["name"], text)
            self.assertIn("(n=", text)


def add_case(workload, seed, trace):
    def test(self):
        self.check(workload, seed, trace)
    name = "test_%s_seed%d_trace%d" % (workload, seed, trace)
    setattr(BenchmarkSmoke, name, test)


for w in SPEC["workloads"]:
    for s in SEEDS:
        for t in (0, 1):
            add_case(w["name"], s, t)


if __name__ == "__main__":
    unittest.main()
