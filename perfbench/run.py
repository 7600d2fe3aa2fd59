#!/usr/bin/env python3
"""Served end-to-end benchmark for crashsim_serve (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload topk_hot --seed 1 --seconds 10 --trace 0

Builds crashsim_serve and the load generator from the checkout's sources
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR (default .bench_build),
then runs one workload. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer ledger with --trace 1. --workload all runs the three
workloads in turn, each ending with its own result line, and exits non-zero
if any run fails or is incorrect. --smoke runs a seconds-long configuration
on a tiny graph (perfbench/smoke_test.py drives it).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("topk_hot", "topk_cold", "temporal")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no crashsim sources next to perfbench/ "
                 "(expected src/ and tools/ at the checkout root)")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "-j", "4"], check=True,
                   stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if args.workload != "all":
        return run_workload(out_dir, args.workload, args)[0]
    failed = False
    for name in WORKLOADS:
        returncode, correct = run_workload(out_dir, name, args)
        failed = failed or returncode != 0 or not correct
    return 1 if failed else 0


def run_workload(out_dir, name, args):
    """Runs one workload; returns (exit status, the result's correct)."""
    work_dir = os.path.join(out_dir, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(out_dir, "perfbench_load"),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve_bin", os.path.join(out_dir, "crashsim_serve"),
           "--work_dir", work_dir]
    if args.smoke:
        cmd.append("--smoke")
    try:
        sys.stdout.flush()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode, False
    return 0, json.loads(proc.stdout.strip().splitlines()[-1])["correct"]


if __name__ == "__main__":
    sys.exit(main())
