#ifndef CRASHSIM_UTIL_TRACE_H_
#define CRASHSIM_UTIL_TRACE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace crashsim {

// Execution tracing: per-query span timelines at near-zero cost.
//
// The recorder is a set of lock-free per-thread ring buffers of
// {name, steady-clock ticks, phase} events. A span is opened/closed by the
// RAII TRACE_SPAN("name") macro: begin/end event pairs on the recording
// thread, nesting implied by record order (spans are scoped objects, so a
// thread's events always form a properly bracketed sequence). Flow events
// (TraceFlowOut / TraceFlowIn) tie a ParallelFor call to the shards it
// spawned across worker threads.
//
// Tracing is disabled by default. A disabled TRACE_SPAN costs one relaxed
// atomic load and a predictable branch (single-digit nanoseconds — the
// overhead guard in tests/util/trace_test.cc pins this), so the macros stay
// compiled into hot paths permanently. Span names must be compile-time
// string literals (the recorder stores the pointer, never copies; the
// trace-span-literal lint rule enforces it), so recording allocates nothing.
//
// Thread-safety contract: recording is safe from any thread at any time
// (each thread owns its buffer; the per-buffer size counter is
// released/acquired across threads). StartTracing()/StopTracing() may race
// with recorders. The exporters and SnapshotTraceEvents() must run after
// StopTracing() once in-flight work has joined (e.g. after the traced query
// returned) — they read other threads' buffers.
//
// Two exporters:
//   ExportChromeTrace()          Chrome trace-event JSON — load the file in
//                                Perfetto (ui.perfetto.dev) or
//                                chrome://tracing.
//   ExportTraceAggregateTable()  self/total wall time per span name, the
//                                "where did the time go" table.

struct TraceEvent {
  enum class Phase : uint8_t {
    kBegin,    // span opened
    kEnd,      // span closed
    kFlowOut,  // flow arrow source (inside an open span)
    kFlowIn,   // flow arrow destination (inside an open span)
  };
  const char* name = nullptr;  // static string literal, never owned
  int64_t ts_ns = 0;           // steady-clock nanoseconds
  uint64_t flow_id = 0;        // non-zero for flow events only
  // Request attribution (PR 10): the id of the serving request that was
  // current on the recording thread, 0 outside any request scope. Lets the
  // Chrome export and /tracez group spans by request instead of by thread.
  uint64_t request_id = 0;
  Phase phase = Phase::kBegin;
};

// One thread's events in record order (begin/end properly bracketed up to
// a possibly-unterminated tail when a span was open at snapshot time).
struct TraceThreadEvents {
  uint32_t tid = 0;
  std::vector<TraceEvent> events;
};

// Whether spans are currently being recorded.
bool TraceEnabled();

// Clears all previously recorded events and enables recording.
void StartTracing();

// Disables recording. Spans already open still record their end event so
// per-thread sequences stay bracketed.
void StopTracing();

// Fresh process-unique id for a flow arrow (never returns 0).
uint64_t NewTraceFlowId();

// Records a flow source / destination event on the calling thread. Emit
// TraceFlowOut inside the span that spawns work and TraceFlowIn inside the
// span that executes it; the exporters draw the arrow. No-ops when tracing
// is disabled or flow_id is 0.
void TraceFlowOut(uint64_t flow_id);
void TraceFlowIn(uint64_t flow_id);

// Events recorded since StartTracing(), grouped per thread. Call only after
// StopTracing() with traced work joined (see the contract above).
std::vector<TraceThreadEvents> SnapshotTraceEvents();

// Events dropped because a thread's buffer filled (recording degrades by
// dropping, never by blocking or reallocating).
int64_t TraceDroppedEvents();

// Chrome trace-event JSON ("traceEvents" array of B/E duration events plus
// s/f flow events; timestamps in microseconds relative to the first event).
// Spans still open at export time are closed at the thread's last timestamp
// so the output is always structurally balanced.
std::string ExportChromeTrace();

// Per-span-name aggregate: count, total time (children included), and self
// time (children excluded), summed across threads.
struct TraceAggregateRow {
  std::string name;
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
// Rows sorted by self time, descending.
std::vector<TraceAggregateRow> AggregateTrace();
// The same aggregate rendered as a fixed-width table.
std::string ExportTraceAggregateTable();

// --- Request-scoped tracing (PR 10) ----------------------------------------
//
// The global per-thread rings above never wrap, so they cannot serve an
// always-on server: after one fill they only drop. RequestTrace is the
// per-request complement — a small bounded collector owned by the serving
// thread for the lifetime of one request. While a thread has a RequestTrace
// installed (TraceRequestScope), every TRACE_SPAN on that thread records
// into it, independent of the global StartTracing() flag; ParallelFor
// propagates the installation to the pool workers running the request's
// shards, so the collector sees the whole ingress → executor → engine tree.
//
// Write side: any thread, lock-free — a slot is claimed with fetch_add and
// written in place; claims past capacity are dropped and counted. A thread's
// own claims land at increasing indices, so filtering the slots by tid
// yields that thread's events in record order (properly bracketed, same as
// the global rings).
//
// Read side: the owning thread, only after all traced work has joined. The
// serving path satisfies this by construction — the executor runs the query
// synchronously and every engine ParallelFor joins before returning (the
// join's mutex hand-off is the happens-before edge that publishes worker
// writes), so reading after Execute() returns is race-free.
class RequestTrace {
 public:
  // 512 events (~20 KiB on the stack) comfortably covers a request's
  // ingress/executor/cache/engine spans plus per-shard spans; deep per-level
  // walk detail overflows by design and is reported via dropped().
  static constexpr size_t kCapacity = 512;

  struct Event {
    const char* name = nullptr;  // static string literal, never owned
    int64_t ts_ns = 0;
    uint64_t flow_id = 0;
    uint32_t tid = 0;  // recording thread (trace-registry tid)
    TraceEvent::Phase phase = TraceEvent::Phase::kBegin;
  };

  explicit RequestTrace(uint64_t request_id) : request_id_(request_id) {}
  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  uint64_t request_id() const { return request_id_; }

  // Appends one event from the calling thread; drops (and counts) when the
  // collector is full. Defined in trace.cc.
  void Append(const char* name, TraceEvent::Phase phase, uint64_t flow_id);

  // Reader side — valid only after writers have quiesced (see above).
  size_t size() const {
    const size_t n = next_.load(std::memory_order_acquire);
    return n < kCapacity ? n : kCapacity;
  }
  const Event& event(size_t i) const { return events_[i]; }
  std::span<const Event> events() const { return {events_.data(), size()}; }
  int64_t dropped() const {
    const size_t n = next_.load(std::memory_order_relaxed);
    return n > kCapacity ? static_cast<int64_t>(n - kCapacity) : 0;
  }

 private:
  const uint64_t request_id_;
  std::atomic<size_t> next_{0};
  std::array<Event, kCapacity> events_;
};

namespace trace_internal {

// Single flag, relaxed loads on the hot path; see TraceSpan.
extern std::atomic<bool> g_trace_enabled;

// The request collector installed on this thread (TraceRequestScope), or
// nullptr. constinit so the inline hot-path read is a plain TLS load with
// no dynamic-initialization guard.
extern thread_local constinit RequestTrace* g_request_trace;

class ThreadBuffer;  // per-thread ring buffer, defined in trace.cc
// Lazily registers (mutex, once per thread) and returns this thread's
// buffer; stable for the process lifetime.
ThreadBuffer* CurrentThreadBuffer();
// Appends one event to `buf` (owner thread only); drops when full.
// `request_id` tags the event with the serving request current on the
// recording thread (0 = none).
void Record(ThreadBuffer* buf, const char* name, TraceEvent::Phase phase,
            uint64_t flow_id, uint64_t request_id);

}  // namespace trace_internal

// The request collector installed on the calling thread, or nullptr.
inline RequestTrace* CurrentRequestTrace() {
  return trace_internal::g_request_trace;
}

// Installs `trace` as the calling thread's request collector for the scope
// (saves and restores the previous installation, so scopes nest). Passing
// nullptr is a no-op scope — callers don't need to branch.
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
// (i.e. be a string literal). The enabled check is inline so a disabled
// span never leaves the header: one relaxed atomic load plus one plain
// thread-local load (the trace_test.cc overhead guard pins the cost).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (trace_internal::g_trace_enabled.load(std::memory_order_relaxed) ||
        trace_internal::g_request_trace != nullptr) {
      Begin(name);
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) End();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void Begin(const char* name);  // out of line: buffer lookup + record
  void End();

  trace_internal::ThreadBuffer* buf_ = nullptr;
  RequestTrace* req_ = nullptr;
  const char* name_ = nullptr;
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
