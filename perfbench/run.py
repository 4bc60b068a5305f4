#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sample_warm --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) through
perfbench/CMakeLists.txt; build output goes to stderr so that the last line
of stdout is the program's JSON result.  The exit code is the program's, or
non-zero without a result when the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("sample_warm", "count_cold", "serve_fleet")


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", bench_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "perfbench", "perfbench_ledger_test"],
        [os.path.join(build_dir, "bin", "perfbench_ledger_test")],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(bench_dir, build_dir):
        return 2
    program = os.path.join(build_dir, "bin", "perfbench")
    sys.stdout.flush()
    return subprocess.run([
        program, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
