#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds perfbench/pipeline_bench from the checkout's sources (CMake, Release), runs one workload
(or `all` of them in one process) and passes its output through. The last stdout line is the
result object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload steady-k32 --seed 1 --seconds 20 --trace 0

Build outputs go to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) inside the
checkout; window logs and span dumps go to .../out. Exits non-zero, printing no result, when
the library sources are missing or the build fails, and non-zero after the result line when a
correctness check failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady-k32", "ingest-k16", "churn-k16")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build():
    """Configures and builds pipeline_bench; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "detector", "system.h")):
        print("perfbench: library sources not found under %s/src" % ROOT, file=sys.stderr)
        return None
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        try:
            proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print("perfbench: %s failed: %s" % (" ".join(step), err), file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            print("perfbench: build step failed: %s" % " ".join(step), file=sys.stderr)
            return None
    binary = os.path.join(build_dir, "pipeline_bench")
    return binary if os.path.isfile(binary) else None


def run(binary, workload, seed, seconds, trace, extra=()):
    """Runs the benchmark binary; returns (exit code, stdout, parsed result or None)."""
    out_dir = os.path.join(build_root(), "out")
    cmd = [binary, "--workload=%s" % workload, "--seed=%d" % seed, "--seconds=%g" % seconds,
           "--trace=%d" % trace, "--out-dir=%s" % out_dir] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 124, "", None
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or sorted(result) != ["attempted", "correct", "failed",
                                                          "metrics"]:
        result = None
    return proc.returncode, proc.stdout, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    code, stdout, result = run(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        sys.stderr.write(stdout)
        print("perfbench: no result line (exit code %d)" % code, file=sys.stderr)
        return code or 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
