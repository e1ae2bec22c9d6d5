#!/usr/bin/env python3
"""Builds the perfbench runner from source and runs one workload.

    python3 perfbench/run.py --workload abtree-batch --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
runner under .bench_build/perfbench (CMake, Release); later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the runner's JSON result. A traced run (--trace 1) also writes
its per-worker spans to .bench_build/perfbench/trace-<workload>-<seed>.json.
Exits non-zero without a result when the build or any check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_runner")
RUN_TIMEOUT_S = 170


def build():
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    marker = os.path.join(BUILD, "build.ninja" if gen else "Makefile")
    steps = []
    if not os.path.exists(marker):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD, "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(BUILD, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
