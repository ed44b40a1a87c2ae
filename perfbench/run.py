#!/usr/bin/env python3
"""Builds the afp solver from source and runs one benchmark workload.

    python3 perfbench/run.py --workload oneshot|search --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds a
Release copy of the library plus the driver (perfbench/driver.cc) under
.bench_build/; later runs only check that build is up to date. Build output
goes to stderr, and the driver's result, one JSON object, is the last line
of stdout. Exits non-zero without a result when the solver sources are
missing, the build fails, or the driver fails or does not finish in time.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("oneshot", "search")
# Set-up and result checks run on top of the measured seconds.
SLACK_SECONDS = 120


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_step(cmd, timeout):
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed: " + " ".join(cmd))


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "afp", "solver.h")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("solver sources not found (missing %s)" % required)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_step(cmd, timeout=120)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", BUILD_DIR, "--target", "afp_perfbench",
              "-j", jobs], timeout=600)
    return os.path.join(BUILD_DIR, "afp_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + SLACK_SECONDS)
    except subprocess.TimeoutExpired:
        fail("driver did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("driver exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result: " + lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
