#include "util/trace.h"

#include <algorithm>
#include <map>
#include <utility>

#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace crashsim {
namespace {

// Drops across every collector, exported as
// crashsim_trace_dropped_events_total so silent overflow is visible on
// /metrics.
Counter& TraceDropCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("trace.dropped_events");
  return c;
}

std::atomic<uint64_t> g_next_flow_id{1};

// The calling thread's trace id: drawn once per thread from a counter, so
// ids are dense and recording allocates nothing.
uint32_t CurrentTid() {
  static std::atomic<uint32_t> next_tid{0};
  thread_local const uint32_t tid =
      next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void AppendFlow(TraceEvent::Phase phase, uint64_t flow_id) {
  RequestTrace* const trace = trace_internal::g_request_trace;
  if (flow_id != 0 && trace != nullptr) trace->Append("flow", phase, flow_id);
}

// One Chrome trace-event object. ts/dur are microseconds with nanosecond
// precision (the format takes doubles).
void AppendChromeEvent(std::string* out, bool* first, const char* name,
                       const char* phase, uint32_t tid, int64_t ts_ns,
                       int64_t epoch_ns, const std::string& extra) {
  if (!*first) *out += ",\n";
  *first = false;
  *out += "  {\"name\": ";
  AppendJsonString(name, out);
  *out += StrFormat(
      ", \"cat\": \"crashsim\", \"ph\": \"%s\", \"pid\": 1, \"tid\": %u, "
      "\"ts\": %.3f%s}",
      phase, tid, static_cast<double>(ts_ns - epoch_ns) / 1e3, extra.c_str());
}

// A span as a B event, its flow arrows, its children, and an E event —
// depth-first, so a thread's B/E events come out properly bracketed.
void AppendChromeSpan(const TraceSpanNode& node, uint32_t tid,
                      int64_t epoch_ns, bool* first, std::string* out) {
  AppendChromeEvent(out, first, node.name, "B", tid, node.begin_ns, epoch_ns,
                    "");
  for (const TraceEvent& flow : node.flows) {
    const auto id = static_cast<unsigned long long>(flow.flow_id);
    if (flow.phase == TraceEvent::Phase::kFlowOut) {
      AppendChromeEvent(out, first, flow.name, "s", tid, flow.ts_ns, epoch_ns,
                        StrFormat(", \"id\": %llu", id));
    } else {
      AppendChromeEvent(out, first, flow.name, "f", tid, flow.ts_ns, epoch_ns,
                        StrFormat(", \"bp\": \"e\", \"id\": %llu", id));
    }
  }
  for (const TraceSpanNode& child : node.children) {
    AppendChromeSpan(child, tid, epoch_ns, first, out);
  }
  AppendChromeEvent(out, first, node.name, "E", tid, node.end_ns, epoch_ns,
                    "");
}

// Folds `node`'s subtree into `by_name`; returns the node's duration.
int64_t AggregateSpan(const TraceSpanNode& node,
                      std::map<std::string, TraceAggregateRow>* by_name) {
  int64_t child_ns = 0;
  for (const TraceSpanNode& child : node.children) {
    child_ns += AggregateSpan(child, by_name);
  }
  const int64_t dur = node.end_ns - node.begin_ns;
  TraceAggregateRow& row = (*by_name)[node.name];
  row.name = node.name;
  ++row.count;
  row.total_ns += dur;
  row.self_ns += dur - child_ns;
  return dur;
}

}  // namespace

namespace trace_internal {

thread_local constinit RequestTrace* g_request_trace = nullptr;

}  // namespace trace_internal

void RequestTrace::Append(const char* name, TraceEvent::Phase phase,
                          uint64_t flow_id) {
  // Claim-then-write: claims are ordered per thread, so the slots filtered
  // by tid reconstruct each thread's bracketed sequence. Publication to the
  // reader is external (the quiesce contract in the header), so relaxed
  // claim ordering suffices.
  const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= capacity_) {
    TraceDropCounter().Add(1);
    return;
  }
  events_[i] = {name, SteadyNowNanos(), flow_id, CurrentTid(), phase};
}

uint64_t NewTraceFlowId() {
  return g_next_flow_id.fetch_add(1, std::memory_order_relaxed);
}

void TraceFlowOut(uint64_t flow_id) {
  AppendFlow(TraceEvent::Phase::kFlowOut, flow_id);
}

void TraceFlowIn(uint64_t flow_id) {
  AppendFlow(TraceEvent::Phase::kFlowIn, flow_id);
}

TraceSpanForest BuildSpanForest(std::span<const TraceEvent> events) {
  TraceSpanForest forest;
  if (events.empty()) return forest;
  forest.t0_ns = std::ranges::min(events, {}, &TraceEvent::ts_ns).ts_ns;
  std::map<uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& e : events) by_tid[e.tid].push_back(&e);

  for (const auto& [tid, thread_events] : by_tid) {
    TraceThreadSpans& thread = forest.threads.emplace_back();
    thread.tid = tid;
    std::vector<TraceSpanNode> open;
    // Ends the innermost open span and hands it to its parent (or roots).
    const auto close = [&open, &thread](int64_t end_ns) {
      TraceSpanNode done = std::move(open.back());
      open.pop_back();
      done.end_ns = end_ns;
      (open.empty() ? thread.roots : open.back().children)
          .push_back(std::move(done));
    };
    int64_t last_ts_ns = forest.t0_ns;
    for (const TraceEvent* e : thread_events) {
      last_ts_ns = std::max(last_ts_ns, e->ts_ns);
      switch (e->phase) {
        case TraceEvent::Phase::kBegin:
          open.push_back({e->name, e->ts_ns, e->ts_ns, {}, {}});
          break;
        case TraceEvent::Phase::kEnd:
          if (!open.empty()) close(e->ts_ns);  // else: orphan end, skipped
          break;
        case TraceEvent::Phase::kFlowOut:
        case TraceEvent::Phase::kFlowIn:
          if (!open.empty()) open.back().flows.push_back(*e);
          break;
      }
    }
    // Spans still open when the collector filled up (or the run was cut):
    // close them at the thread's last timestamp, innermost first.
    while (!open.empty()) close(last_ts_ns);
  }
  return forest;
}

std::string ExportChromeTrace(const RequestTrace& trace) {
  const TraceSpanForest forest = BuildSpanForest(trace.events());
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const TraceThreadSpans& thread : forest.threads) {
    for (const TraceSpanNode& root : thread.roots) {
      AppendChromeSpan(root, thread.tid, forest.t0_ns, &first, &out);
    }
  }
  out += "\n]}\n";
  return out;
}

std::vector<TraceAggregateRow> AggregateTrace(const RequestTrace& trace) {
  std::map<std::string, TraceAggregateRow> by_name;
  for (const TraceThreadSpans& thread :
       BuildSpanForest(trace.events()).threads) {
    for (const TraceSpanNode& root : thread.roots) {
      AggregateSpan(root, &by_name);
    }
  }
  std::vector<TraceAggregateRow> rows;
  rows.reserve(by_name.size());
  for (auto& [name, row] : by_name) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(),
            [](const TraceAggregateRow& a, const TraceAggregateRow& b) {
              return a.self_ns > b.self_ns;
            });
  return rows;
}

std::string ExportTraceAggregateTable(const RequestTrace& trace) {
  std::string out = StrFormat("%-32s %8s %12s %12s\n", "span", "count",
                              "total_ms", "self_ms");
  for (const TraceAggregateRow& row : AggregateTrace(trace)) {
    out += StrFormat("%-32s %8lld %12.3f %12.3f\n", row.name.c_str(),
                     static_cast<long long>(row.count),
                     static_cast<double>(row.total_ns) / 1e6,
                     static_cast<double>(row.self_ns) / 1e6);
  }
  if (const int64_t dropped = trace.dropped(); dropped > 0) {
    out += StrFormat("(%lld event(s) dropped: buffer full)\n",
                     static_cast<long long>(dropped));
  }
  return out;
}

}  // namespace crashsim
