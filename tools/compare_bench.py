#!/usr/bin/env python3
"""Compare a bench_micro --json run against a committed baseline.

Usage:
  compare_bench.py --baseline BENCH_baseline.json --current BENCH_run.json \
      [--threshold 0.25]

Records are matched by their "bench" name and compared on ns/op: the
"ns_per_op_median" of a benchmark run with repetitions, else "ns_per_op".
Only records with ns/op > 0 on BOTH sides participate (the QueryStatsProbe
record and benchmarks absent from one side are skipped with a note). A
benchmark whose current ns/op exceeds baseline * (1 + threshold) is a
regression; any regression makes the exit code 1, which is what
`run_benchmarks.sh --check` (and the CI bench lane) keys off. Improvements
beyond the threshold are reported informationally but never fail the run —
ratcheting the baseline down is a deliberate, reviewed action
(`run_benchmarks.sh --update-baseline`).

Stdlib only: this runs in CI and in the bare benchmark container.
"""

import argparse
import json
import sys


def load_records(path):
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise SystemExit(f"{path}: expected a JSON array of bench records")
    out = {}
    for rec in data:
        name = rec.get("bench")
        if not isinstance(name, str):
            raise SystemExit(f"{path}: record without a \"bench\" name: {rec}")
        out[name] = rec
    return out


def ns_per_op(rec):
    """The figure a record is gated on: its median over repetitions if it
    has one, else its single ns/op."""
    return rec.get("ns_per_op_median", rec.get("ns_per_op", 0))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed ns/op growth (0.25 = +25%%)")
    args = parser.parse_args()

    baseline = load_records(args.baseline)
    current = load_records(args.current)

    compared = 0
    regressions = []
    for name in sorted(baseline):
        base_ns = ns_per_op(baseline[name])
        if not isinstance(base_ns, (int, float)) or base_ns <= 0:
            continue
        cur = current.get(name)
        if cur is None:
            print(f"note: {name}: in baseline but not in current run, skipped")
            continue
        cur_ns = ns_per_op(cur)
        if not isinstance(cur_ns, (int, float)) or cur_ns <= 0:
            print(f"note: {name}: current run has no ns/op, skipped")
            continue
        compared += 1
        ratio = cur_ns / base_ns
        verdict = "ok"
        if ratio > 1.0 + args.threshold:
            verdict = "REGRESSION"
            regressions.append(name)
        elif ratio < 1.0 / (1.0 + args.threshold):
            verdict = "improved (consider --update-baseline)"
        stat = " (median)" if "ns_per_op_median" in cur else ""
        print(f"{name:44s} {base_ns:14.1f} -> {cur_ns:14.1f} ns/op{stat} "
              f"({ratio:6.2f}x)  {verdict}")

    new_names = sorted(set(current) - set(baseline))
    for name in new_names:
        if ns_per_op(current[name]) > 0:
            print(f"note: {name}: not in baseline (new benchmark?)")

    if compared == 0:
        print("error: no comparable benchmarks between baseline and current",
              file=sys.stderr)
        return 1
    if regressions:
        print(f"FAIL: {len(regressions)}/{compared} benchmark(s) regressed "
              f"beyond +{args.threshold:.0%}: {', '.join(regressions)}",
              file=sys.stderr)
        return 1
    print(f"PASS: {compared} benchmark(s) within +{args.threshold:.0%} "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
