#!/usr/bin/env python3
"""Self-test of the mining-job benchmark.

    python3 perfbench/test_bench.py

Run from the repository root. Builds the driver through run.py, then checks
on tiny inputs that every workload prints each metric BENCHMARK.json names,
with its unit; that a deliberately wrong oracle shows up in job_fail_frac and
in the result's correct/failed fields; that the environment overrides are
refused; and that the benchmark fails without a result when the G-Miner
sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
TINY = ["--seconds", "1", "--scale", "0.25"]
# tc-btc stays runnable by hand but is not a BENCHMARK.json workload (README.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["tc-btc"]


def run_bench(workload, trace, *extra, env=None, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--trace", str(trace)] + list(TINY) + list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, env=env, timeout=900)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = run_bench(workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = result_of(done)
                    self.check_metrics(result, SPEC[key])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    if trace:
                        self.assertEqual(result["metrics"]["job_fail_frac"]["value"], 0)
                        self.assertEqual(result["metrics"]["trace.events_dropped"]["value"], 0)

    def test_wrong_oracle_counts_every_job_failed(self):
        done = run_bench("tc-orkut", 1, "--oracle-skew", "1")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = result_of(done)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["job_fail_frac"]["value"], 1)

    def test_pinned_environment_is_refused(self):
        for var in ("GMINER_SIMD", "GMINER_PULL_BATCH", "GMINER_METRICS"):
            with self.subTest(var=var):
                done = run_bench("tc-orkut", 0, env=dict(os.environ, **{var: "off"}))
                self.assertNotEqual(done.returncode, 0)
                self.assertNotIn('"metrics"', done.stdout)

    def test_fails_without_sources(self):
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        bare = os.path.join(ROOT, target, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            done = run_bench("tc-orkut", 0, env=env, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
