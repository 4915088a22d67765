#!/usr/bin/env python3
"""Run one workload of the ANUFS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (a CMake package on top of the repository's src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first
use, then runs the workload. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The traced
run also writes its spans to <build>/spans/<workload>-seed<n>.jsonl.

Exit status: 0 when every correctness check held; 1 when a check failed
or the program aborted (a result with "correct": false is printed); 2 on
bad arguments; 3 when the benchmark cannot be built (no result printed).
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_paper", "serve_churn")
RUN_TIMEOUT_S = 170
BUILD_JOBS = 3


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory
    or None. Build output goes to stderr so stdout ends with the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no ANUFS sources next to perfbench/ (expected "
              "src/CMakeLists.txt)", file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(BUILD_JOBS),
                  "--target"] + list(targets))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return out


def parse_result(line):
    """The binary's result line, or None when it is not one."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def failure_result(why):
    print("perfbench: " + why, file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}))
    return 1


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out = build(["perfbench"])
    if out is None:
        return 3
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return failure_result("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = parse_result(lines[-1]) if lines else None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        return failure_result("program exited %d without a result"
                              % proc.returncode)
    print(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
