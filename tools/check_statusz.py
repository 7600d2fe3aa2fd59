#!/usr/bin/env python3
"""Schema checks for the crashsim_serve debug endpoints (stdlib only).

Validates a saved GET /statusz body (crashsim.statusz.v1), a GET /tracez
body (crashsim.tracez.v1), and optionally a crashsim.event.v1 event-log
file and a `crashsim_cli replay --latency_out` CSV. When both the event
log and /tracez (or the CSV) are given, also checks that request ids
correlate across the artifacts — the end-to-end contract of the
request-scoped observability PR (docs/OBSERVABILITY.md).

  tools/check_statusz.py --statusz FILE --tracez FILE \
      [--event-log FILE] [--latency-csv FILE]

Exits 0 when every check passes; prints the first failure and exits 1.
"""

import argparse
import csv
import json
import sys

LATENCY_CSV_HEADER = [
    "request_id", "client", "source", "status", "client_ms",
    "server_queue_ms", "server_cache_ms", "server_walk_ms",
    "server_serialize_ms",
]


def fail(message):
    print(f"check_statusz: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def require(condition, message):
    if not condition:
        fail(message)


def check_statusz(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    require(doc.get("schema") == "crashsim.statusz.v1",
            f"statusz schema is {doc.get('schema')!r}")
    require(isinstance(doc.get("uptime_seconds"), (int, float))
            and doc["uptime_seconds"] >= 0, "bad uptime_seconds")
    for section in ("startup", "build", "graph", "server", "executor",
                    "cache", "latency", "slo"):
        require(isinstance(doc.get(section), dict),
                f"statusz missing object {section!r}")
    bind_ms = doc["startup"].get("bind_ms")
    require(isinstance(bind_ms, (int, float)) and bind_ms >= 0,
            "startup.bind_ms must be a number >= 0")
    graph = doc["graph"]
    require(graph.get("nodes", 0) > 0, "graph.nodes must be > 0")
    server = doc["server"]
    for key in ("connections_accepted", "requests", "errors",
                "last_request_id"):
        require(isinstance(server.get(key), (int, float)),
                f"server.{key} missing")
    executor = doc["executor"]
    for key in ("submitted", "admitted", "shed_queue_full", "shed_deadline",
                "completed", "failed", "running", "queued"):
        require(isinstance(executor.get(key), (int, float)),
                f"executor.{key} missing")
    require(executor["admitted"] <= executor["submitted"],
            "executor ledger: admitted > submitted")
    cache = doc["cache"]
    for key in ("hits", "misses", "coalesced", "evictions", "bytes", "trees",
                "hit_rate"):
        require(isinstance(cache.get(key), (int, float)),
                f"cache.{key} missing")
    latency = doc["latency"]
    require(latency.get("window_seconds", 0) >= 1, "bad latency window")
    for op in ("topk", "temporal"):
        window = latency.get(op)
        require(isinstance(window, dict), f"latency.{op} missing")
        for key in ("count", "p50_ms", "p95_ms", "p99_ms"):
            require(isinstance(window.get(key), (int, float)),
                    f"latency.{op}.{key} missing")
    slo = doc["slo"]
    for key in ("threshold_ms", "window_total", "window_breaches",
                "window_burn_rate", "breaches_total"):
        require(isinstance(slo.get(key), (int, float)), f"slo.{key} missing")
    require(0.0 <= slo["window_burn_rate"] <= 1.0,
            "slo.window_burn_rate out of [0, 1]")
    require(slo["window_breaches"] <= slo["window_total"],
            "slo breaches exceed window total")
    return server


def walk_span_names(span, names):
    names.add(span.get("name"))
    for child in span.get("children", []):
        walk_span_names(child, names)


def check_tracez(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    require(doc.get("schema") == "crashsim.tracez.v1",
            f"tracez schema is {doc.get('schema')!r}")
    require(isinstance(doc.get("capacity"), int) and doc["capacity"] >= 0,
            "bad tracez capacity")
    traces = doc.get("traces")
    require(isinstance(traces, list), "tracez traces must be a list")
    ids = set()
    saw_ingress_tree = False
    for entry in traces:
        require(entry.get("request_id", 0) > 0,
                "tracez entry without request_id")
        ids.add(entry["request_id"])
        for key in ("op", "status", "elapsed_ms", "slow", "trace"):
            require(key in entry, f"tracez entry missing {key!r}")
        tree = entry["trace"]
        require(tree.get("request_id") == entry["request_id"],
                "span tree request_id disagrees with its entry")
        require(isinstance(tree.get("threads"), list),
                "span tree without threads")
        names = set()
        for thread in tree["threads"]:
            require(isinstance(thread.get("spans"), list),
                    "thread without spans")
            for span in thread["spans"]:
                require(isinstance(span.get("name"), str)
                        and "start_us" in span and "dur_us" in span,
                        "span missing name/start_us/dur_us")
                walk_span_names(span, names)
        # The end-to-end claim: the ingress span and the executor/engine
        # spans of a query request land in one reassembled tree.
        if "serve.request" in names and "executor.query" in names:
            saw_ingress_tree = True
    if traces:
        require(saw_ingress_tree,
                "no trace contains both serve.request and executor.query "
                "spans (ingress->executor propagation broken)")
    return ids


def check_event_log(path):
    slow_ids = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"event log line {lineno} is not JSON: {e}")
            require(event.get("schema") == "crashsim.event.v1",
                    f"event log line {lineno}: schema is "
                    f"{event.get('schema')!r}")
            require(isinstance(event.get("ts_unix_ms"), (int, float)),
                    f"event log line {lineno}: missing ts_unix_ms")
            require(isinstance(event.get("event"), str),
                    f"event log line {lineno}: missing event type")
            if event["event"] == "slow_query":
                for key in ("request_id", "op", "status", "elapsed_ms",
                            "queue_ms", "cache_ms", "walk_ms",
                            "serialize_ms"):
                    require(key in event,
                            f"slow_query line {lineno} missing {key!r}")
                slow_ids.add(event["request_id"])
    return slow_ids


def check_latency_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        require(header == LATENCY_CSV_HEADER,
                f"latency CSV header is {header!r}, "
                f"expected {LATENCY_CSV_HEADER!r}")
        ids = set()
        for row in reader:
            require(len(row) == len(LATENCY_CSV_HEADER),
                    f"latency CSV row has {len(row)} fields")
            ids.add(int(row[0]))
            float(row[4])  # client_ms parses as a number
        require(ids, "latency CSV has no data rows")
        require(0 not in ids, "latency CSV contains request_id 0")
    return ids


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--statusz", required=True)
    parser.add_argument("--tracez", required=True)
    parser.add_argument("--event-log")
    parser.add_argument("--latency-csv")
    args = parser.parse_args()

    check_statusz(args.statusz)
    tracez_ids = check_tracez(args.tracez)
    slow_ids = check_event_log(args.event_log) if args.event_log else set()
    csv_ids = check_latency_csv(args.latency_csv) if args.latency_csv else set()

    if args.event_log:
        require(slow_ids, "event log contains no slow_query line")
    # Correlation: one request id observable end-to-end — in the client CSV,
    # in the event log, and in a /tracez span tree.
    if csv_ids and slow_ids:
        require(csv_ids & slow_ids,
                "no request id from the replay CSV appears in the event log")
    if tracez_ids and slow_ids:
        require(tracez_ids & slow_ids,
                "no /tracez request id appears in the event log")
    if csv_ids and tracez_ids:
        require(csv_ids & tracez_ids,
                "no request id from the replay CSV appears in /tracez")

    print("check_statusz: OK")


if __name__ == "__main__":
    main()
