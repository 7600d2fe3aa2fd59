#!/usr/bin/env bash
# Runs the benchmark harness and collects machine-readable results as
# BENCH_*.json so the perf trajectory of the repo is tracked over time, not
# asserted once.
#
#   tools/run_benchmarks.sh [--smoke] [--check] [--update-baseline]
#                           [--build-dir DIR] [--out-dir DIR]
#
#   --smoke      run a fast subset of bench_micro with a tiny measurement
#                budget — seconds, not minutes; used as a ctest so CI keeps
#                the --json path exercised and the schema stable. Also runs
#                an instrumented crashsim_cli query and validates the
#                crashsim.query_stats.v1 schema, the Chrome trace export,
#                and the Prometheus metrics export end to end.
#   --check      after the run, compare ns/op (the median over repetitions
#                for the benchmarks that repeat, BM_TreeProbability*,
#                BM_WalkBatchScalar and BM_SingleSourceSweep)
#                against the committed <repo>/BENCH_baseline.json with
#                tools/compare_bench.py
#                (regressions beyond BENCH_CHECK_THRESHOLD, default 0.25 =
#                +25%) and check the walk-batch speedup floor; both gates
#                are printed, and the script fails if either failed. Bumps
#                the smoke measurement budget so the numbers are stable
#                enough to gate on.
#   --update-baseline  rewrite <repo>/BENCH_baseline.json from this run
#                (same measurement budget as --check); commit the result.
#   --build-dir  build tree containing bench/bench_micro (default: the
#                BUILD_DIR environment variable, then <repo>/build)
#   --out-dir    where BENCH_*.json lands (default: the build dir)
#
# Full mode runs all bench_micro benchmarks plus the table-producing harness
# binaries (bench_scaling etc.) with their default settings.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
# Env override first (CI trees live in nonstandard places), --build-dir wins.
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build}"
OUT_DIR=""
SMOKE=0
CHECK=0
UPDATE_BASELINE=0
BASELINE="${REPO_ROOT}/BENCH_baseline.json"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) SMOKE=1; shift ;;
    --check) CHECK=1; shift ;;
    --update-baseline) UPDATE_BASELINE=1; shift ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out-dir) OUT_DIR="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 1 ;;
  esac
done
OUT_DIR="${OUT_DIR:-${BUILD_DIR}}"

# Compares `$1` (a bench_micro --json file) against the committed baseline;
# called at the end of whichever mode ran. The threshold is overridable so a
# noisy host can temporarily loosen the gate without editing the script.
check_against_baseline() {
  if [[ ! -f "${BASELINE}" ]]; then
    echo "--check: baseline ${BASELINE} not found" >&2
    return 1
  fi
  python3 "${REPO_ROOT}/tools/compare_bench.py" \
    --baseline "${BASELINE}" --current "$1" \
    --threshold "${BENCH_CHECK_THRESHOLD:-0.25}"
}

# Asserts the SoA batch walk engine keeps its speedup over the scalar
# reference loop on the same workload: ns/op(BM_WalkBatchScalar/10000) (its
# median over repetitions) over ns/op(BM_WalkBatchSoA/10000) must stay at or
# above the floor (default 3x;
# BENCH_BATCH_SPEEDUP_MIN overrides on unusual hosts). Unlike the baseline
# comparison this is a same-run RATIO, so host speed cancels out — it cannot
# be dodged by refreshing the baseline on a slower machine.
check_batch_speedup() {
  python3 - "$1" "${BENCH_BATCH_SPEEDUP_MIN:-3.0}" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    records = json.load(f)
floor = float(sys.argv[2])
ns = {r["bench"]: r.get("ns_per_op_median", r["ns_per_op"])
      for r in records if "bench" in r}
scalar = ns.get("BM_WalkBatchScalar/10000")
soa = ns.get("BM_WalkBatchSoA/10000")
assert scalar and soa, ("walk-batch records missing", sorted(ns))
ratio = scalar / soa
print(f"batch speedup: scalar {scalar:.0f} ns/op, SoA {soa:.0f} ns/op, "
      f"ratio {ratio:.2f}x (floor {floor}x)")
if ratio < floor:
    sys.exit(f"batch speedup {ratio:.2f}x below the {floor}x floor")
PY
}

# --check: evaluates and prints both gates on `$1`, then fails if either
# failed, so a baseline regression never hides the batch-speedup ratio.
run_checks() {
  local status=0
  check_against_baseline "$1" || status=1
  check_batch_speedup "$1" || status=1
  return "${status}"
}

BENCH_MICRO="${BUILD_DIR}/bench/bench_micro"
if [[ ! -x "${BENCH_MICRO}" ]]; then
  echo "bench_micro not found at ${BENCH_MICRO}; build the tree first" >&2
  exit 1
fi
mkdir -p "${OUT_DIR}"

if [[ "${SMOKE}" -eq 1 ]]; then
  # Small-graph subset, minimal measurement time: validates the --json
  # schema end to end without a real measurement budget. When the run feeds
  # the perf gate (or refreshes its baseline) the budget grows so ns/op is a
  # measurement rather than a single-iteration sample.
  OUT="${OUT_DIR}/BENCH_micro_smoke.json"
  MIN_TIME=0.01
  if [[ "${CHECK}" -eq 1 || "${UPDATE_BASELINE}" -eq 1 ]]; then
    MIN_TIME=0.05
  fi
  "${BENCH_MICRO}" \
    --benchmark_filter='((BM_BuildRevReach(Paper|Corrected)|BM_TreeProbability(Hit|Miss))/1000|(BM_WalkBatch(Scalar|SoA)|BM_SingleSourceSweep)/10000)(/repeats:[0-9]+)?$' \
    --benchmark_min_time="${MIN_TIME}" \
    --json "${OUT}" \
    --trace_out "${OUT_DIR}/BENCH_trace_smoke.json"
  # The smoke run doubles as a schema check: every record must carry the
  # stable keys tools and CI consume, including the instrumented-query probe
  # record's query_stats blob.
  for key in bench n m ns_per_op tree_bytes query_stats; do
    if ! grep -q "\"${key}\"" "${OUT}"; then
      echo "schema check failed: key '${key}' missing from ${OUT}" >&2
      exit 1
    fi
  done

  # End-to-end check of the crashsim.query_stats.v1 export: generate a tiny
  # temporal dataset, run an instrumented static and temporal query, and
  # validate the JSON lines structurally (keys present, counts non-negative,
  # trials run bounded by the target).
  CLI="${BUILD_DIR}/tools/crashsim_cli"
  if [[ ! -x "${CLI}" ]]; then
    echo "crashsim_cli not found at ${CLI}; build the tree first" >&2
    exit 1
  fi
  TMP_DIR="$(mktemp -d)"
  trap 'rm -rf "${TMP_DIR}"' EXIT
  "${CLI}" generate --dataset as733 --scale 0.02 --snapshots 6 \
    --out "${TMP_DIR}/tiny.tel" > /dev/null
  # First snapshot as a static edge list for the topk query.
  awk '!/^#/ && $3 == 0 { print $1, $2 }' "${TMP_DIR}/tiny.tel" \
    > "${TMP_DIR}/tiny.el"
  SRC="$(awk '{ print $1; exit }' "${TMP_DIR}/tiny.el")"
  "${CLI}" topk --graph "${TMP_DIR}/tiny.el" --source "${SRC}" --k 5 \
    --trials 200 --stats_json | tail -n 1 > "${TMP_DIR}/topk_stats.json"
  "${CLI}" temporal --graph "${TMP_DIR}/tiny.tel" --source "${SRC}" \
    --kind threshold --theta 0.01 --trials 200 --stats_json \
    | tail -n 1 > "${TMP_DIR}/temporal_stats.json"
  python3 - "${TMP_DIR}/topk_stats.json" "${TMP_DIR}/temporal_stats.json" <<'PY'
import json, sys

for path in sys.argv[1:]:
    with open(path) as f:
        blob = json.load(f)
    assert blob["schema"] == "crashsim.query_stats.v1", (path, blob)
    for key in ("query", "algo", "n", "m", "elapsed_seconds",
                "trials", "tree", "work", "deadline"):
        assert key in blob, (path, key)
    trials = blob["trials"]
    assert trials["target"] >= 0 and trials["run"] >= 0, (path, trials)
    assert trials["run"] <= trials["target"], (path, trials)
    for section in ("tree", "work"):
        for key, value in blob[section].items():
            if isinstance(value, (int, float)):
                assert value >= 0, (path, section, key, value)
    if blob["query"] == "temporal":
        assert "temporal" in blob, path
        temporal = blob["temporal"]
        assert temporal["snapshots_processed"] > 0, (path, temporal)
        for key, value in temporal.items():
            if isinstance(value, (int, float)):
                assert value >= 0, (path, key, value)
print("query_stats schema OK")
PY

  # Execution-tracing end to end: a traced 2-thread topk query must produce
  # a balanced Chrome trace covering the whole run (graph load included)
  # with the revReach / sweep / ParallelFor shard spans and the flow events
  # tying shards to their spawning call; a traced temporal query, which
  # still walks, must carry its per-snapshot and trial-block spans;
  # --trace_summary must print a sweep row; and --metrics_out must pass the
  # Prometheus format checker. The bench_micro --trace_out timeline written
  # above (a walking query) gets the same structural validation. A trace
  # collector installed too late, or not carried to the pool shards, fails
  # one of these. The topk graph has over two of the sweep's 1024-node
  # ParallelFor chunks, so its 2-thread sweep runs a pool shard.
  "${CLI}" generate --dataset wiki-vote --scale 0.35 --snapshots 1 \
    --out "${TMP_DIR}/wide.tel" > /dev/null
  awk '!/^#/ { print $1, $2 }' "${TMP_DIR}/wide.tel" > "${TMP_DIR}/wide.el"
  WIDE_SRC="$(awk '{ print $2; exit }' "${TMP_DIR}/wide.el")"
  "${CLI}" topk --graph "${TMP_DIR}/wide.el" --source "${WIDE_SRC}" --k 5 \
    --threads 2 --trace_out "${TMP_DIR}/topk_trace.json" \
    --metrics_out "${TMP_DIR}/metrics.txt" > /dev/null
  "${CLI}" temporal --graph "${TMP_DIR}/tiny.tel" --source "${SRC}" \
    --kind threshold --theta 0.01 --trials 200 --threads 2 \
    --trace_out "${TMP_DIR}/temporal_trace.json" > /dev/null
  "${CLI}" topk --graph "${TMP_DIR}/tiny.el" --source "${SRC}" --k 5 \
    --threads 2 --trace_summary > "${TMP_DIR}/topk_summary.txt"
  if ! grep -Eq '^crashsim\.sweep +[0-9]+ ' \
      "${TMP_DIR}/topk_summary.txt"; then
    echo "trace summary check failed: no crashsim.sweep row" >&2
    cat "${TMP_DIR}/topk_summary.txt" >&2
    exit 1
  fi
  python3 - "${TMP_DIR}/topk_trace.json" "${TMP_DIR}/temporal_trace.json" \
    "${OUT_DIR}/BENCH_trace_smoke.json" <<'PY'
import json, sys

topk, temporal, bench = sys.argv[1:]
required = {
    topk: ("graph_io.load_edge_list", "rev_reach.build", "crashsim.sweep",
           "parallel_for", "parallel_for.shard"),
    temporal: ("graph_io.load_temporal_edge_list", "crashsim_t.snapshot",
               "crashsim.trial_block", "parallel_for.shard"),
    bench: ("rev_reach.build", "crashsim.trial_block", "parallel_for",
            "parallel_for.shard"),
}
for path, wants in required.items():
    with open(path) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    assert events, path
    depth = {}
    for e in events:
        assert e["ph"] in ("B", "E", "s", "f"), (path, e)
        if e["ph"] == "B":
            depth[e["tid"]] = depth.get(e["tid"], 0) + 1
        elif e["ph"] == "E":
            depth[e["tid"]] = depth.get(e["tid"], 0) - 1
            assert depth[e["tid"]] >= 0, (path, e)
    assert all(v == 0 for v in depth.values()), (path, depth)
    names = {e["name"] for e in events if e["ph"] == "B"}
    for want in wants:
        assert want in names, (path, want, sorted(names))
    out_ids = {e["id"] for e in events if e["ph"] == "s"}
    in_ids = {e["id"] for e in events if e["ph"] == "f"}
    assert out_ids, path
    assert in_ids <= out_ids, (path, in_ids - out_ids)
print("chrome trace OK")
PY
  python3 "${REPO_ROOT}/tools/check_prometheus.py" "${TMP_DIR}/metrics.txt"

  if [[ "${UPDATE_BASELINE}" -eq 1 ]]; then
    cp "${OUT}" "${BASELINE}"
    echo "baseline updated: ${BASELINE}"
  fi
  if [[ "${CHECK}" -eq 1 ]]; then
    run_checks "${OUT}" || exit 1
  fi
  echo "smoke OK: $(grep -c '"bench"' "${OUT}") records in ${OUT}"
  exit 0
fi

"${BENCH_MICRO}" --json "${OUT_DIR}/BENCH_micro.json"

for b in bench_scaling bench_table2_example; do
  BIN="${BUILD_DIR}/bench/${b}"
  if [[ -x "${BIN}" ]]; then
    "${BIN}" --csv "${OUT_DIR}/BENCH_${b#bench_}.csv" || true
  fi
done
if [[ "${UPDATE_BASELINE}" -eq 1 ]]; then
  echo "--update-baseline refreshes the smoke baseline; rerun with --smoke" >&2
  exit 1
fi
if [[ "${CHECK}" -eq 1 ]]; then
  run_checks "${OUT_DIR}/BENCH_micro.json" || exit 1
fi
echo "results in ${OUT_DIR}/BENCH_*.json and BENCH_*.csv"
