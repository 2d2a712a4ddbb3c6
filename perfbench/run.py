#!/usr/bin/env python3
"""Builds the library and the benchmark from source, then runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload train-stream --seed 1 --seconds 8 --trace 0

The build goes to .bench_build/ at the checkout root (configured once,
rebuilt incrementally). Build output goes to stderr; the benchmark's own
report goes to stdout, and its last line is the one-line JSON result.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-stream", "serve-open", "refresh-live", "calibrate")


def build(build_dir):
    """Configures (first time) and builds the perfbench target."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: %s holds no dcmt source tree "
                 "(CMakeLists.txt and src/ are missing)" % ROOT)

    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(ROOT, ".bench_build", "work")]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the benchmark did not finish within 170 s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
