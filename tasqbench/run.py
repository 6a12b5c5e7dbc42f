#!/usr/bin/env python3
"""Builds and runs the TASQ benchmark from the repository root.

    python3 tasqbench/run.py --workload recurring|adhoc|retrain \\
        --seed N --seconds S --trace 0|1
    python3 tasqbench/run.py --self-test

The first call configures and builds this directory (and the libraries in
../src) into .bench_build/tasqbench; later calls only check the build. The
benchmark's stdout is passed through: its last line is the JSON result.
Build output goes to stderr. Exits non-zero when the build fails (with no
result printed), when a correctness check fails, or when a run overruns.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "tasqbench")
# Each run must end within 180 s; leave room to report the overrun.
RUN_TIMEOUT_S = 170


def build(targets):
    """Configures once, then builds `targets`; True on success."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("tasqbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def run(argv):
    """Runs one binary, passing stdout through; returns its exit code."""
    sys.stdout.flush()
    try:
        return subprocess.run(argv, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("tasqbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["recurring", "adhoc", "retrain"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        if not build(["tasqbench_test"]):
            return 1
        return run([os.path.join(BUILD, "tasqbench_test")])
    if args.workload is None:
        parser.error("--workload is required")
    if not build(["tasqbench", "tasqbench_traced"]):
        return 1
    binary = "tasqbench_traced" if args.trace else "tasqbench"
    argv = [os.path.join(BUILD, binary), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        argv += ["--trace-file", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
