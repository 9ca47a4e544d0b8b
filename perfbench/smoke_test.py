#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark: every workload on two seeds.

    python3 perfbench/smoke_test.py

Runs run.py at --size tiny, untraced on seeds 1 and 2 and traced on seed 1,
and checks that every result is correct, names exactly the metrics
BENCHMARK.json lists, reports positive end-to-end values, and that the two
seeds simulate different inputs. run.py itself fails a result whose runs of
one seed disagree on the output digest; the traced run fails when its
1-thread, streams-off, resumed or traced pass disagrees with the 2-thread
run.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n"
                             f"{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class Smoke(unittest.TestCase):
    def check_result(self, result, names):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), names)

    def test_every_workload_on_two_seeds(self):
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                queries = []
                for seed in (1, 2):
                    result = run(workload, seed, 0)
                    self.check_result(result, end_to_end)
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)
                    queries.append(
                        result["metrics"]["cold_window_queries"]["value"])
                self.assertNotEqual(queries[0], queries[1])
                self.check_result(run(workload, 1, 1), per_layer)


if __name__ == "__main__":
    unittest.main()
