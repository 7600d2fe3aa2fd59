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
#   5. scrape GET /metrics, validate the Prometheus exposition format
#      with tools/check_prometheus.py, and require the topk latency
#      histogram's count to equal the topk requests the replay sent;
#   6. scrape GET /statusz and GET /tracez, require /statusz's executor and
#      cache counters to equal the /metrics samples scraped before it,
#      validate both schemas with tools/check_statusz.py, and require one
#      request id to correlate end-to-end: replay --latency_out CSV ->
#      slow-query event log -> /tracez span tree (the server runs with
#      --slow_query_ms 0 and --tracez_sample_every 1 so every request is
#      logged and sampled);
#   7. require 404 on unknown debug paths and 405 on non-GET methods;
#   8. send repeated temporal queries over overlapping windows and require
#      crashsim_temporal_diag_estimates_total on /metrics to stay within the
#      snapshot count (each snapshot's d(w) is estimated once, then shared),
#      then diff one served answer per kind, on a window starting past
#      snapshot 0, against `crashsim_cli temporal` on the same graph/seed
#      (nodes and snapshots_processed must match);
#   9. SIGTERM the server mid-replay and require a clean drain ("clean
#      shutdown" banner, exit code 0, replay tolerating the cut).
#  10. start a second server, hold 3 idle client connections on it, and
#      require its threads to make at most IDLE_SWITCHES_MAX voluntary
#      context switches in 2 s (every wait blocks on its event, none wakes
#      on a timer), then open one /metrics connection that sends nothing
#      and require SIGTERM to drain the server within DRAIN_MS_MAX (the
#      listener would otherwise wait 2 s for the scrape's request head).
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
HOLDER_PID=""
SCRAPER_PID=""
cleanup() {
  for pid in "$SERVER_PID" "$HOLDER_PID" "$SCRAPER_PID"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill -KILL "$pid" 2>/dev/null || true
    fi
  done
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

echo "== topk latency histogram counts every topk request"
# Every replay request is a topk one; the histogram is this server's own.
SENT="$(awk '$1 == "outcomes:" {for (i = 3; i <= NF; i += 2) n += $i}
  END {print n + 0}' "$WORK/replay.txt")"
TOPK_COUNT="$(awk '$1 == "crashsim_serve_topk_ms_count" {print $2}' "$SCRAPE")"
echo "   topk requests sent=$SENT crashsim_serve_topk_ms_count=$TOPK_COUNT"
[[ -n "$TOPK_COUNT" && "$TOPK_COUNT" -eq "$SENT" ]] || {
  echo "FAIL: expected $SENT topk latency samples, got $TOPK_COUNT" >&2
  exit 1; }

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
# No request ran between the /metrics scrape and this /statusz, so the two
# must read the same ledger values: /metrics renders the executor's and the
# cache's own Stats, the same records /statusz lists.
python3 - "$WORK/statusz.json" "$SCRAPE" <<'PY'
import json, sys
statusz = json.load(open(sys.argv[1]))
samples = {}
for line in open(sys.argv[2]):
    parts = line.split()
    if len(parts) == 2 and not line.startswith("#"):
        samples[parts[0]] = float(parts[1])
for block, key in (("executor", "submitted"), ("executor", "completed"),
                   ("cache", "hits"), ("cache", "misses")):
    family = "crashsim_%s_%s_total" % (block, key)
    if samples.get(family, 0) != statusz[block][key]:
        raise SystemExit("FAIL: /metrics %s = %s but /statusz %s.%s = %s" % (
            family, samples.get(family), block, key, statusz[block][key]))
print("   /statusz executor and cache ledgers match /metrics")
PY
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

echo "== temporal bit-identity vs crashsim_cli temporal"
python3 - "$PORT" "$SNAPSHOTS" "$CLI" "$WORK/tiny.tel" <<'PY'
import json, re, socket, struct, subprocess, sys
port, snapshots, cli, tel = (int(sys.argv[1]), int(sys.argv[2]), sys.argv[3],
                             sys.argv[4])
begin = 2  # past snapshot 0: the engine opens its cursor mid-history

def recv_exact(s, n):
    data = b""
    while len(data) < n:
        chunk = s.recv(n - len(data))
        if not chunk:
            raise SystemExit("FAIL: server closed mid-frame")
        data += chunk
    return data

s = socket.create_connection(("127.0.0.1", port), timeout=30)
for kind in ("threshold", "increasing", "decreasing"):
    body = json.dumps({"op": "temporal", "source": 3, "kind": kind,
                       "begin": begin, "end": snapshots - 1,
                       "theta": 0.01}).encode()
    s.sendall(struct.pack(">I", len(body)) + body)
    (size,) = struct.unpack(">I", recv_exact(s, 4))
    reply = json.loads(recv_exact(s, size))
    if reply.get("status") != "OK":
        raise SystemExit("FAIL: temporal query answered %r" % reply)
    served = (reply["nodes"], reply["snapshots_processed"])
    out = subprocess.run(
        [cli, "temporal", "--graph", tel, "--undirected", "--source", "3",
         "--kind", kind, "--begin", str(begin), "--theta", "0.01",
         "--trials", "2000", "--seed", "42"],
        check=True, capture_output=True, text=True).stdout
    direct = ([int(line) for line in re.findall(r"^  (-?\d+)$", out, re.M)],
              int(re.search(r"^\((\d+) snapshots,", out, re.M).group(1)))
    if served != direct:
        raise SystemExit("FAIL: served %s answer %r differs from the CLI's %r"
                         % (kind, served, direct))
    print("   %s: %d nodes over %d snapshots, identical"
          % (kind, len(direct[0]), direct[1]))
s.close()
PY

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

echo "== idle cost and idle drain"
IDLE_SWITCHES_MAX=10
DRAIN_MS_MAX=1000
rm -f "$WORK/ports.txt"
"$SERVE" --graph "$WORK/tiny.el" --temporal "$WORK/tiny.tel" --undirected \
  --event_log "$WORK/idle_events.jsonl" \
  --port_file "$WORK/ports.txt" > "$WORK/idle_serve.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 50); do
  [[ -s "$WORK/ports.txt" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    cat "$WORK/idle_serve.log" >&2; exit 1; }
  sleep 0.1
done
[[ -s "$WORK/ports.txt" ]] || { echo "idle server never bound" >&2; exit 1; }
PORT="$(awk '{print $1}' "$WORK/ports.txt")"
MPORT="$(awk '{print $2}' "$WORK/ports.txt")"
# Three idle connections, held until the server closes them.
python3 - "$PORT" "$WORK/held" <<'PY' &
import socket, sys
socks = [socket.create_connection(("127.0.0.1", int(sys.argv[1])))
         for _ in range(3)]
open(sys.argv[2], "w").close()
for s in socks:
    s.recv(1)
PY
HOLDER_PID=$!
for _ in $(seq 1 50); do
  [[ -e "$WORK/held" ]] && break
  sleep 0.1
done
[[ -e "$WORK/held" ]] || {
  echo "FAIL: idle clients never connected" >&2; exit 1; }
sleep 0.3  # let the connection threads reach their first read
switches() {
  cat /proc/"$SERVER_PID"/task/*/status 2>/dev/null |
    awk '$1 == "voluntary_ctxt_switches:" {n += $2} END {print n + 0}'
}
THREADS="$(ls /proc/"$SERVER_PID"/task | wc -l)"
BEFORE="$(switches)"
sleep 2
IDLE_SWITCHES=$(( $(switches) - BEFORE ))
echo "   $THREADS threads, $IDLE_SWITCHES voluntary context switches in 2 s"
[[ "$IDLE_SWITCHES" -le "$IDLE_SWITCHES_MAX" ]] || {
  echo "FAIL: idle server woke $IDLE_SWITCHES times in 2 s" \
    "(max $IDLE_SWITCHES_MAX)" >&2; exit 1; }
# A silent scraper, opened only now: the listener gives up on a request head
# after 2 s, so one held through the sample above would be gone already.
python3 - "$MPORT" "$WORK/scraping" <<'PY' &
import socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
open(sys.argv[2], "w").close()
s.recv(1)
PY
SCRAPER_PID=$!
for _ in $(seq 1 50); do
  [[ -e "$WORK/scraping" ]] && break
  sleep 0.1
done
[[ -e "$WORK/scraping" ]] || {
  echo "FAIL: silent scraper never connected" >&2; exit 1; }
sleep 0.2  # let the /metrics listener accept it and block on its head
DRAIN_START="$(date +%s%N)"
kill -TERM "$SERVER_PID"
SERVE_RC=0
wait "$SERVER_PID" || SERVE_RC=$?
DRAIN_MS=$(( ($(date +%s%N) - DRAIN_START) / 1000000 ))
SERVER_PID=""
wait "$HOLDER_PID" || true
HOLDER_PID=""
wait "$SCRAPER_PID" || true
SCRAPER_PID=""
echo "   SIGTERM drain with 3 idle connections and a silent scraper:" \
  "${DRAIN_MS} ms"
[[ "$SERVE_RC" -eq 0 ]] || {
  echo "FAIL: idle server exited $SERVE_RC on SIGTERM" >&2; exit 1; }
[[ "$DRAIN_MS" -le "$DRAIN_MS_MAX" ]] || {
  echo "FAIL: idle drain took ${DRAIN_MS} ms (max $DRAIN_MS_MAX)" >&2; exit 1; }

echo "serve smoke: OK"
