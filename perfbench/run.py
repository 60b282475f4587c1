#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the sgnn library and the benchmark
binary (Release) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild only what changed. Build output
goes to stderr, so the last line on stdout is the binary's JSON result. The
exit code is the binary's: non-zero when an output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_mix", "train_zero", "train_gpar", "serve_open")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(target):
    """Configures once, then builds `target`; returns False on failure."""
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # The benchmark builds the library from this source tree; without it
    # there is nothing to measure.
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isdir(os.path.join(ROOT, "include"))):
        print("perfbench: no sgnn source tree at " + ROOT, file=sys.stderr)
        return 2

    if args.self_test:
        if not build("perfbench_tests"):
            return 2
        return subprocess.run([os.path.join(build_dir(), "perfbench_tests")]
                              ).returncode

    if not build("perfbench"):
        return 2
    command = [os.path.join(build_dir(), "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(build_dir(), "out")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
