#!/usr/bin/env python3
"""Build and run the Menos benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload trunk_compute --seed 1 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --selftest   # the benchmark's arithmetic test

Every call configures and builds perfbench (and the Menos libraries from
src/) into .bench_build/perfbench; only the first one compiles, later ones
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Trace runs write their spans to
.bench_build/perfbench/spans-<workload>.csv.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    """Configure and build `target`; False on any failure. Both steps are
    quick no-ops once the tree is up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            print(f"run.py: '{' '.join(cmd)}' failed", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the arithmetic unit test")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_stats_test"):
            return 1
        return subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_stats_test")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 1
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans",
                os.path.join(BUILD_DIR, f"spans-{args.workload}.csv")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
