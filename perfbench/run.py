#!/usr/bin/env python3
"""Builds the Eclipse benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload decode_cif --seed 1 --seconds 20 --trace 0

The build lives in .bench_build/perfbench (CMake, Release). Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
With --trace 1 the Chrome trace is written to
.bench_build/traces/<workload>-seed<seed>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "eclipse_perfbench")
WORKLOADS = ("decode_cif", "encode_cif", "farm_mix")
# A run must finish well inside the three minutes a run is allowed.
RUN_TIMEOUT_S = 175


def parse_args(argv):
    p = argparse.ArgumentParser(description="Eclipse simulator benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small clips (self-test)")
    p.add_argument("--corrupt-golden", action="store_true",
                   help="damage the golden reference (self-test)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 0 < args.seconds <= 3600:
        p.error("--seconds must be in (0, 3600]")
    return args


def build():
    """Configures once and builds incrementally; False when impossible."""
    if not os.path.isfile(os.path.join(ROOT, "src", "app", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "eclipse_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv):
    args = parse_args(argv)
    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_golden:
        cmd.append("--corrupt-golden")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
