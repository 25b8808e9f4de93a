#!/usr/bin/env python3
"""Builds the mining-job benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload tc-orkut --seed 1 --seconds 10 --trace 0

Run from the repository root. The driver and the G-Miner library it links are
compiled with CMake into $CARGO_TARGET_DIR (default .bench_build) on first
use; later runs only rebuild what changed. The driver's standard output is
passed through, so the last line is the result object described in
perfbench/README.md. Build output goes to standard error.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "cluster.h")):
        fail(f"G-Miner sources not found under {ROOT}/src")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench_driver"]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(step)}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    # Anything else (--scale, --oracle-skew) goes to the driver unchanged.
    args, extra = parser.parse_known_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    driver = build(build_dir)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", args.trace, "--work-dir",
           os.path.join(build_dir, "work")] + extra
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"driver exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(done.stdout)
        fail("driver printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver result has unexpected keys")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"# driver peak RSS {peak_kb / 1024:.0f} MiB", file=sys.stderr)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
