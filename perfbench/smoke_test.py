#!/usr/bin/env python3
"""Seconds-long smoke test of the served benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json in the --smoke configuration (tiny
graphs, a fraction of a second of load), untraced and traced, and checks
that each run exits 0, that its last stdout line is the result object with
every metric BENCHMARK.json names under its unit, that the output check ran
and passed, and that error_rate is printed. Then checks that the benchmark
refuses to run, without printing a result, in a directory holding only
BENCHMARK.json and perfbench/.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0.4",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (where, proc.returncode, proc.stderr)]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or \
            result["attempted"] < 1:
        problems.append("%s: not correct: %s" % (where, lines[-1]))
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        problems.append("%s: metrics %s" % (where, sorted(got)))
    for m in want:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"] or \
                not isinstance(entry.get("value"), (int, float)):
            problems.append("%s: %s is %s" % (where, m["name"], entry))
        printed = [l for l in lines[:-1] if l.split()[:1] == [m["name"]]]
        if not printed or printed[0].split()[-1] != m["unit"]:
            problems.append("%s: %s not printed with its unit" %
                            (where, m["name"]))
    if not any(l.startswith("check: verified ") and " 0 failed" in l
               for l in lines):
        problems.append("%s: output check did not run" % where)
    if not any(l.split()[:1] == ["error_rate"] for l in lines):
        problems.append("%s: error_rate not printed" % where)
    return problems


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: must fail without a result."""
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "topk_hot", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return ["bare directory: exit %d, last line %r" %
                (proc.returncode, last[0])]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    problems += check_bare_directory()
    for p in problems:
        print("FAIL", p)
    print("smoke: %s" % ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
