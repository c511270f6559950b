#!/usr/bin/env python3
"""Build the program and its benchmark from source, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload train-ctd-shadow --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds into .bench_build/ (Release); later runs
only check that the build is current. Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result. Exits non-zero
without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "trkx-perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the benchmark program and the libraries it uses."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "trkx-perfbench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    # OpenMP gives every thread the program starts itself (serving workers,
    # DDP ranks, the prefetch producer) the team size of OMP_NUM_THREADS,
    # not the main thread's; 1 keeps each workload to its thread split.
    env = dict(os.environ, OMP_NUM_THREADS="1")
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
