#!/usr/bin/env bash
# End-to-end smoke for the crashsim_serve service (docs/SERVING.md):
#
#   1. generate a small temporal dataset and its static projection;
#   2. start crashsim_serve on ephemeral ports with degradation off;
#   3. drive it with 8 concurrent hot-key replay clients and require
#      shared-tree cache hits > 0 (N queries on a hot source must not run
#      N revReach builds);
#   4. diff a served topk answer byte-for-byte against `crashsim_cli topk`
#      on the same graph/seed — the serving path must not change results;
#   5. scrape GET /metrics and validate the Prometheus exposition format
#      with tools/check_prometheus.py;
#   6. scrape GET /statusz and GET /tracez, validate both schemas with
#      tools/check_statusz.py, and require one request id to correlate
#      end-to-end: replay --latency_out CSV -> slow-query event log ->
#      /tracez span tree (the server runs with --slow_query_ms 0 and
#      --tracez_sample_every 1 so every request is logged and sampled);
#   7. require 404 on unknown debug paths and 405 on non-GET methods;
#   8. send repeated temporal queries over overlapping windows and require
#      crashsim_temporal_diag_estimates_total on /metrics to stay within the
#      snapshot count (each snapshot's d(w) is estimated once, then shared);
#   9. SIGTERM the server mid-replay and require a clean drain ("clean
#      shutdown" banner, exit code 0, replay tolerating the cut).
#
#   tools/run_serve_smoke.sh [--build-dir DIR]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build}"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 1 ;;
  esac
done

CLI="${BUILD_DIR}/tools/crashsim_cli"
SERVE="${BUILD_DIR}/tools/crashsim_serve"
for bin in "$CLI" "$SERVE"; do
  [[ -x "$bin" ]] || { echo "missing binary: $bin" >&2; exit 1; }
done

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -KILL "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== generate dataset"
SNAPSHOTS=6
"$CLI" generate --dataset as733 --scale 0.02 --snapshots "$SNAPSHOTS" \
  --out "$WORK/tiny.tel"
# Static projection: snapshot-0 edges of the temporal list.
awk '$1 !~ /^#/ && $3 == 0 {print $1, $2}' "$WORK/tiny.tel" > "$WORK/tiny.el"

echo "== start crashsim_serve"
# degrade_at 0: degradation would shrink trial budgets under load and break
# the bit-identity check below. trials capped so the smoke stays fast.
"$SERVE" --graph "$WORK/tiny.el" --temporal "$WORK/tiny.tel" --undirected \
  --degrade_at 0 --max_concurrent 8 --max_queue 64 --trials 2000 --seed 42 \
  --event_log "$WORK/events.jsonl" --slow_query_ms 0 \
  --tracez_capacity 64 --tracez_sample_every 1 \
  --port_file "$WORK/ports.txt" > "$WORK/serve.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 50); do
  [[ -s "$WORK/ports.txt" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.log" >&2; exit 1; }
  sleep 0.1
done
[[ -s "$WORK/ports.txt" ]] || { echo "server never bound" >&2; exit 1; }
PORT="$(awk '{print $1}' "$WORK/ports.txt")"
MPORT="$(awk '{print $2}' "$WORK/ports.txt")"
echo "   port=$PORT metrics_port=$MPORT"

echo "== hot-key replay (8 clients)"
"$CLI" replay --port "$PORT" --clients 8 --requests 12 \
  --sources "3,1,5" --hot_fraction 0.8 --k 10 --seed 9 \
  --latency_out "$WORK/latency.csv" | tee "$WORK/replay.txt"
grep -q "OK 96" "$WORK/replay.txt" || {
  echo "FAIL: expected 96 OK responses" >&2; exit 1; }
head -1 "$WORK/latency.csv" | grep -q \
  "^request_id,client,source,status,client_ms,server_queue_ms,server_cache_ms,server_walk_ms,server_serialize_ms$" || {
  echo "FAIL: bad --latency_out CSV header" >&2; exit 1; }

echo "== scrape /metrics"
SCRAPE="$WORK/metrics.txt"
if command -v curl >/dev/null 2>&1; then
  curl -sf "http://127.0.0.1:${MPORT}/metrics" > "$SCRAPE"
else
  python3 -c "import urllib.request,sys; \
sys.stdout.write(urllib.request.urlopen('http://127.0.0.1:${MPORT}/metrics').read().decode())" \
    > "$SCRAPE"
fi
python3 "${REPO_ROOT}/tools/check_prometheus.py" "$SCRAPE"

echo "== shared-tree cache effectiveness"
HITS="$(awk '$1 == "crashsim_cache_hits_total" {print $2}' "$SCRAPE")"
MISSES="$(awk '$1 == "crashsim_cache_misses_total" {print $2}' "$SCRAPE")"
echo "   cache hits=$HITS misses=$MISSES"
[[ -n "$HITS" && "$HITS" -gt 0 ]] || {
  echo "FAIL: hot-key workload produced no cache hits" >&2; exit 1; }
# 3 distinct sources -> at most 3 builds; everything else must reuse.
[[ -n "$MISSES" && "$MISSES" -le 3 ]] || {
  echo "FAIL: expected <= 3 tree builds, got $MISSES" >&2; exit 1; }

echo "== debug endpoints: /statusz + /tracez + event log correlation"
fetch() {  # fetch URL OUT — curl when present, stdlib python otherwise
  if command -v curl >/dev/null 2>&1; then
    curl -sf "$1" > "$2"
  else
    python3 -c "import urllib.request,sys; \
sys.stdout.buffer.write(urllib.request.urlopen(sys.argv[1]).read())" "$1" > "$2"
  fi
}
fetch "http://127.0.0.1:${MPORT}/statusz" "$WORK/statusz.json"
fetch "http://127.0.0.1:${MPORT}/tracez" "$WORK/tracez.json"
# slow_query_ms 0 logs every request; give the async writer a beat to drain.
sleep 0.3
python3 "${REPO_ROOT}/tools/check_statusz.py" \
  --statusz "$WORK/statusz.json" --tracez "$WORK/tracez.json" \
  --event-log "$WORK/events.jsonl" --latency-csv "$WORK/latency.csv"

echo "== HTTP listener hardening: 404 / 405 / split writes"
HTTP_CODES="$(python3 - "$MPORT" <<'PY'
import socket, sys, time
port = int(sys.argv[1])

def code_for(payload, split=False):
    s = socket.create_connection(("127.0.0.1", port), timeout=5)
    if split:  # dribble the request line byte-groups apart
        for i in range(0, len(payload), 7):
            s.sendall(payload[i:i + 7])
            time.sleep(0.01)
    else:
        s.sendall(payload)
    data = b""
    while b"\r\n" not in data:
        chunk = s.recv(4096)
        if not chunk:
            break
        data += chunk
    s.close()
    return data.split(b" ")[1].decode() if data else "EOF"

print(code_for(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"))
print(code_for(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n"))
print(code_for(b"GET /statusz HTTP/1.1\r\nHost: x\r\n\r\n", split=True))
PY
)"
[[ "$HTTP_CODES" == $'404\n405\n200' ]] || {
  echo "FAIL: expected 404/405/200, got: $HTTP_CODES" >&2; exit 1; }
echo "   404/405/split-write all answered correctly"

echo "== bit-identity vs crashsim_cli topk"
"$CLI" replay --port "$PORT" --sources "3" --k 10 --once > "$WORK/served.txt"
"$CLI" topk --graph "$WORK/tiny.el" --undirected --source 3 --k 10 \
  --algo crashsim --trials 2000 --seed 42 > "$WORK/direct.txt"
diff "$WORK/served.txt" "$WORK/direct.txt" || {
  echo "FAIL: served topk differs from the direct CLI answer" >&2; exit 1; }
echo "   identical"

echo "== temporal queries share per-snapshot diagonals"
python3 - "$PORT" "$SNAPSHOTS" <<'PY'
import json, socket, struct, sys
port, snapshots = int(sys.argv[1]), int(sys.argv[2])

def recv_exact(s, n):
    data = b""
    while len(data) < n:
        chunk = s.recv(n - len(data))
        if not chunk:
            raise SystemExit("FAIL: server closed mid-frame")
        data += chunk
    return data

s = socket.create_connection(("127.0.0.1", port), timeout=30)
for _ in range(3):
    for kind in ("threshold", "increasing", "decreasing"):
        for begin in range(snapshots - 1):
            body = json.dumps({"op": "temporal", "source": 3, "kind": kind,
                               "begin": begin, "end": snapshots - 1,
                               "theta": 0.01}).encode()
            s.sendall(struct.pack(">I", len(body)) + body)
            (size,) = struct.unpack(">I", recv_exact(s, 4))
            reply = json.loads(recv_exact(s, size))
            if reply.get("status") != "OK":
                raise SystemExit("FAIL: temporal query answered %r" % reply)
s.close()
PY
fetch "http://127.0.0.1:${MPORT}/metrics" "$WORK/metrics_temporal.txt"
ESTIMATES="$(awk '$1 == "crashsim_temporal_diag_estimates_total" {print $2}' \
  "$WORK/metrics_temporal.txt")"
echo "   diagonal estimates=$ESTIMATES over $SNAPSHOTS snapshots"
[[ -n "$ESTIMATES" && "$ESTIMATES" -ge 1 && "$ESTIMATES" -le "$SNAPSHOTS" ]] || {
  echo "FAIL: expected 1..$SNAPSHOTS diagonal estimates, got $ESTIMATES" >&2
  exit 1; }

echo "== graceful shutdown under load"
"$CLI" replay --port "$PORT" --clients 4 --requests 200 --sources "3" \
  --tolerate_eof > "$WORK/drain_replay.txt" &
REPLAY_PID=$!
sleep 0.7  # let the replay clients get queries in flight
kill -TERM "$SERVER_PID"
SERVE_RC=0
wait "$SERVER_PID" || SERVE_RC=$?
wait "$REPLAY_PID" || true
[[ "$SERVE_RC" -eq 0 ]] || {
  echo "FAIL: server exited $SERVE_RC on SIGTERM" >&2; exit 1; }
grep -q "clean shutdown" "$WORK/serve.log" || {
  echo "FAIL: no clean-shutdown banner"; cat "$WORK/serve.log" >&2; exit 1; }
SERVER_PID=""
echo "   drained cleanly"

echo "serve smoke: OK"
