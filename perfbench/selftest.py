#!/usr/bin/env python3
"""Self-tests of the ANUFS benchmark.

    python3 perfbench/selftest.py

Builds perfbench and perfbench_selftest (see run.py for where), then:
  1. runs perfbench_selftest (GoogleTest): the forwarding decorator returns
     exactly what the wrapped policy returns for every registered policy,
     metric names are well formed, and bad outputs are counted as failed;
  2. checks BENCHMARK.json against the metrics the program reports:
     same names, units and direction, every name [A-Za-z0-9_.-]+;
  3. runs each workload once briefly with a corrupted output and expects
     run.py to exit non-zero with "correct": false and failed > 0.
Exits 0 when everything passed.
"""

import json
import os
import re
import subprocess
import sys

import run

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def check_benchmark_json(binary):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = subprocess.run([binary, "--list-metrics"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.split("\n")
    program = {}
    for line in filter(None, listed):
        name, unit, better, half = line.split()
        program[name] = (unit, better, half)
    declared = {}
    for half in ("end_to_end", "per_layer"):
        for m in bench[half]:
            declared[m["name"]] = (m["unit"], m["better"], half)
    errors = []
    for name in declared:
        if not NAME_RE.match(name):
            errors.append("bad metric name %r" % name)
    if declared != program:
        for name in sorted(set(declared) | set(program)):
            if declared.get(name) != program.get(name):
                errors.append("%s: BENCHMARK.json %s, program %s"
                              % (name, declared.get(name), program.get(name)))
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        errors.append("workloads differ from run.py's")
    return errors


def check_corrupted_run(binary, workload, trace):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0.3",
           "--trace", trace, "--corrupt"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    result = run.parse_result(lines[-1]) if lines else None
    if proc.returncode == 0:
        return ["%s trace %s: corrupted run exited 0" % (workload, trace)]
    if result is None or result["correct"] or result["failed"] <= 0:
        return ["%s trace %s: corrupted run not reported as failed: %s"
                % (workload, trace, lines[-1:] if lines else proc.stderr)]
    return []


def main():
    out = run.build(["perfbench", "perfbench_selftest"])
    if out is None:
        return 3
    failures = []
    if subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode:
        failures.append("perfbench_selftest failed")
    binary = os.path.join(out, "perfbench")
    failures += check_benchmark_json(binary)
    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            failures += check_corrupted_run(binary, workload, trace)
    for f in failures:
        print("FAIL: " + f)
    print("perfbench selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
