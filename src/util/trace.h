#ifndef CRASHSIM_UTIL_TRACE_H_
#define CRASHSIM_UTIL_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace crashsim {

// Execution tracing: span timelines at near-zero cost.
//
// A span is opened/closed by the RAII TRACE_SPAN("name") macro: begin/end
// events on the recording thread, nesting implied by record order (spans
// are scoped objects, so a thread's events always form a properly bracketed
// sequence). Flow events (TraceFlowOut / TraceFlowIn) tie a ParallelFor
// call to the shards it spawned across worker threads.
//
// There is one recorder, the bounded RequestTrace collector. Spans record
// only while a collector is installed on the thread (TraceRequestScope);
// ParallelFor carries the installation to the pool workers running its
// shards. The server installs one per request (behind /tracez);
// crashsim_cli --trace_out/--trace_summary and bench_micro --trace_out
// install one for the whole traced run. A span with no collector installed
// costs one thread-local load and a predictable branch (single-digit
// nanoseconds — the overhead guard in tests/util/trace_test.cc pins this),
// so the macros stay compiled into hot paths permanently. Span names must
// be compile-time string literals (the recorder stores the pointer, never
// copies; the trace-span-literal lint rule enforces it), so recording
// allocates nothing.
//
// Every export reads the same reassembly, BuildSpanForest():
//   ExportChromeTrace()          Chrome trace-event JSON — load the file in
//                                Perfetto (ui.perfetto.dev) or
//                                chrome://tracing.
//   ExportTraceAggregateTable()  self/total wall time per span name, the
//                                "where did the time go" table.
//   BuildSpanTreeJson()          the /tracez span tree (serve/debugz.h).

struct TraceEvent {
  enum class Phase : uint8_t {
    kBegin,    // span opened
    kEnd,      // span closed
    kFlowOut,  // flow arrow source (inside an open span)
    kFlowIn,   // flow arrow destination (inside an open span)
  };
  // No default member initializers: a collector's slots are left
  // uninitialized until claimed, so an unused capacity is never touched.
  const char* name;  // static string literal, never owned
  int64_t ts_ns;     // steady-clock nanoseconds
  uint64_t flow_id;  // non-zero for flow events only
  uint32_t tid;      // recording thread (process-unique, dense from 0)
  Phase phase;
};

// Fresh process-unique id for a flow arrow (never returns 0).
uint64_t NewTraceFlowId();

// Records a flow source / destination event into the calling thread's
// collector. Emit TraceFlowOut inside the span that spawns work and
// TraceFlowIn inside the span that executes it; the exporters draw the
// arrow. No-ops when no collector is installed or flow_id is 0.
void TraceFlowOut(uint64_t flow_id);
void TraceFlowIn(uint64_t flow_id);

// A bounded event collector, installed on a thread with TraceRequestScope.
//
// Write side: any thread, lock-free — a slot is claimed with fetch_add and
// written in place; claims past capacity are dropped and counted (also in
// the process-wide trace.dropped_events counter). A thread's own claims
// land at increasing indices, so filtering the slots by tid yields that
// thread's events in record order, properly bracketed up to a possibly
// unterminated tail.
//
// Read side: the owning thread, only after all traced work has joined. The
// serving path and the CLI satisfy this by construction — every engine
// ParallelFor joins before returning (the join's mutex hand-off is the
// happens-before edge that publishes worker writes), so reading after the
// traced query returns is race-free.
class RequestTrace {
 public:
  // A served request's ingress/executor/cache/engine spans plus per-shard
  // spans fit in 512 events (16 KiB); events past that are counted by
  // dropped().
  static constexpr size_t kServeCapacity = 512;
  // A whole traced CLI or benchmark run, graph load included.
  static constexpr size_t kRunCapacity = size_t{1} << 16;

  RequestTrace(uint64_t request_id, size_t capacity)
      : request_id_(request_id),
        capacity_(capacity),
        events_(std::make_unique_for_overwrite<TraceEvent[]>(capacity)) {}
  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  uint64_t request_id() const { return request_id_; }
  size_t capacity() const { return capacity_; }

  // Appends one event from the calling thread; drops (and counts) when the
  // collector is full. Defined in trace.cc.
  void Append(const char* name, TraceEvent::Phase phase, uint64_t flow_id);

  // Reader side — valid only after writers have quiesced (see above).
  size_t size() const {
    const size_t n = next_.load(std::memory_order_acquire);
    return n < capacity_ ? n : capacity_;
  }
  const TraceEvent& event(size_t i) const { return events_[i]; }
  std::span<const TraceEvent> events() const {
    return {events_.get(), size()};
  }
  int64_t dropped() const {
    const size_t n = next_.load(std::memory_order_relaxed);
    return n > capacity_ ? static_cast<int64_t>(n - capacity_) : 0;
  }

 private:
  const uint64_t request_id_;
  const size_t capacity_;
  std::atomic<size_t> next_{0};
  const std::unique_ptr<TraceEvent[]> events_;
};

// --- reassembly --------------------------------------------------------------

// One span rebuilt from a thread's bracketed events.
struct TraceSpanNode {
  const char* name = nullptr;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  std::vector<TraceEvent> flows;  // kFlowOut/kFlowIn recorded inside it
  std::vector<TraceSpanNode> children;
};

struct TraceThreadSpans {
  uint32_t tid = 0;
  std::vector<TraceSpanNode> roots;
};

struct TraceSpanForest {
  int64_t t0_ns = 0;  // earliest event timestamp; exports are relative to it
  std::vector<TraceThreadSpans> threads;  // ascending tid
};

// Turns a quiesced collector's events into one span forest per recording
// thread. Orphan end events are skipped; spans still open at the end of a
// thread's sequence are closed at that thread's last timestamp, so every
// begin yields exactly one span and every export is structurally balanced.
TraceSpanForest BuildSpanForest(std::span<const TraceEvent> events);

// --- exports (caller contract: the collector's writers have joined) ----------

// Chrome trace-event JSON ("traceEvents" array of B/E duration events plus
// s/f flow events; timestamps in microseconds relative to the first event).
std::string ExportChromeTrace(const RequestTrace& trace);

// Per-span-name aggregate: count, total time (children included), and self
// time (children excluded), summed across threads.
struct TraceAggregateRow {
  std::string name;
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
// Rows sorted by self time, descending.
std::vector<TraceAggregateRow> AggregateTrace(const RequestTrace& trace);
// The same aggregate rendered as a fixed-width table, with a closing line
// when the collector dropped events.
std::string ExportTraceAggregateTable(const RequestTrace& trace);

// --- installation ------------------------------------------------------------

namespace trace_internal {

// The collector installed on this thread (TraceRequestScope), or nullptr.
// constinit so the inline hot-path read is a plain TLS load with no
// dynamic-initialization guard.
extern thread_local constinit RequestTrace* g_request_trace;

}  // namespace trace_internal

// The collector installed on the calling thread, or nullptr.
inline RequestTrace* CurrentRequestTrace() {
  return trace_internal::g_request_trace;
}

// Installs `trace` as the calling thread's collector for the scope (saves
// and restores the previous installation, so scopes nest). Passing nullptr
// is a no-op scope — callers don't need to branch.
class TraceRequestScope {
 public:
  explicit TraceRequestScope(RequestTrace* trace)
      : saved_(trace_internal::g_request_trace) {
    trace_internal::g_request_trace = trace;
  }
  ~TraceRequestScope() { trace_internal::g_request_trace = saved_; }
  TraceRequestScope(const TraceRequestScope&) = delete;
  TraceRequestScope& operator=(const TraceRequestScope&) = delete;

 private:
  RequestTrace* const saved_;
};

// RAII span. Prefer the TRACE_SPAN macro; `name` must outlive the trace
// (i.e. be a string literal). It records into the collector installed at
// construction, so a scope that ends while the span is open still gets the
// end event.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : trace_(trace_internal::g_request_trace), name_(name) {
    if (trace_ != nullptr) trace_->Append(name_, TraceEvent::Phase::kBegin, 0);
  }
  ~TraceSpan() {
    if (trace_ != nullptr) trace_->Append(name_, TraceEvent::Phase::kEnd, 0);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  RequestTrace* const trace_;
  const char* const name_;
};

}  // namespace crashsim

// Opens a span covering the rest of the enclosing scope. `name` MUST be a
// compile-time string literal (enforced by tools/lint/check_invariants.py,
// rule trace-span-literal).
#define CRASHSIM_TRACE_CONCAT_INNER(a, b) a##b
#define CRASHSIM_TRACE_CONCAT(a, b) CRASHSIM_TRACE_CONCAT_INNER(a, b)
#define TRACE_SPAN(name)        \
  const ::crashsim::TraceSpan CRASHSIM_TRACE_CONCAT(trace_span_, __LINE__)( \
      name)

#endif  // CRASHSIM_UTIL_TRACE_H_
