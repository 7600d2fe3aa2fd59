#ifndef CRASHSIM_UTIL_EVENT_LOG_H_
#define CRASHSIM_UTIL_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>  // lint:allow(thread-primitives): EventLog owns its single writer thread; declared here, justified in event_log.cc

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace crashsim {

// Structured JSON-lines event log, schema crashsim.event.v1.
//
// Every line is one JSON object:
//
//   {"schema": "crashsim.event.v1", "ts_unix_ms": <wall ms>,
//    "event": "<type>", ...event-specific fields...}
//
// The schema name is versioned like crashsim.query_stats.v1: fields are
// only ever added, never renamed or re-typed, so downstream parsers can
// pin "schema" and ignore unknown keys.
//
// Producers render a line with EventBuilder and hand it to EventLog::Log(),
// which enqueues it on a bounded lock-free MPMC queue (Vyukov-style
// sequence-stamped ring) consumed by one dedicated writer thread. Log()
// never blocks and never does file I/O: when the queue is full the line is
// dropped and counted in dropped(), which a server owning the log exports
// as crashsim_eventlog_dropped_total — the serving hot path must
// degrade by losing log lines, never by stalling on a slow disk.

// Renders one event line. Key order is emission order; keys must be ASCII
// without escapes (they are written verbatim); values are JSON-escaped.
// Single-use: Finish() returns the line (no trailing newline) and the
// builder must then be discarded.
class EventBuilder {
 public:
  // Opens the object and emits the schema, timestamp (wall clock,
  // milliseconds since the Unix epoch) and event-type fields.
  explicit EventBuilder(std::string_view event);

  EventBuilder& Str(std::string_view key, std::string_view value);
  EventBuilder& Int(std::string_view key, int64_t value);
  EventBuilder& UInt(std::string_view key, uint64_t value);
  // Non-finite values render as null (JSON has no NaN/Inf).
  EventBuilder& Double(std::string_view key, double value);
  EventBuilder& Bool(std::string_view key, bool value);
  // Splices `json` verbatim as the value — the caller vouches it is one
  // well-formed JSON value (e.g. a pre-rendered QueryStats object).
  EventBuilder& Raw(std::string_view key, std::string_view json);

  std::string Finish();

 private:
  void Key(std::string_view key);
  std::string out_;
};

namespace event_log_internal {

// Bounded lock-free MPMC queue of rendered lines (Vyukov sequence-stamped
// ring). Capacity is fixed at construction and rounded up to a power of
// two. Exposed for the unit test; production code goes through EventLog.
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t min_capacity);

  size_t capacity() const { return mask_ + 1; }

  // False when the queue is full (the caller drops the line).
  bool TryPush(std::string&& value);
  // False when the queue is empty.
  bool TryPop(std::string* out);

 private:
  struct Cell {
    std::atomic<size_t> seq{0};
    std::string value;
  };

  std::unique_ptr<Cell[]> cells_;
  size_t mask_ = 0;
  alignas(64) std::atomic<size_t> enqueue_pos_{0};
  alignas(64) std::atomic<size_t> dequeue_pos_{0};
};

}  // namespace event_log_internal

class EventLog {
 public:
  struct Options {
    // Append target; empty writes to stderr (the crashsim_serve default
    // before --event_log is given).
    std::string path;
    // Queue slots (rounded up to a power of two). One slot is one pending
    // line; overflow drops newest.
    size_t queue_capacity = 1024;
  };

  // Starts the writer thread. On an unopenable path the log falls back to
  // stderr and ok() returns false.
  explicit EventLog(const Options& options);
  // Drains everything already enqueued, flushes, and joins the writer.
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  bool ok() const { return ok_; }

  // Enqueues one rendered line (EventBuilder::Finish() output — the writer
  // appends the newline). Safe from any thread; never blocks.
  void Log(std::string line);

  // Blocks until every line enqueued before the call is written and
  // fflush()ed. Test/shutdown aid, not a hot-path call.
  void Flush();

  // Lines dropped on queue overflow since construction.
  int64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  void WriterLoop();

  event_log_internal::BoundedQueue queue_;
  std::FILE* out_ = nullptr;  // borrowed stderr or owned fopen handle
  bool owns_out_ = false;
  bool ok_ = false;

  std::atomic<int64_t> enqueued_{0};  // successful TryPush count
  std::atomic<int64_t> flushed_{0};   // lines written and fflush()ed
  std::atomic<int64_t> dropped_{0};

  Mutex mu_;
  CondVar wake_;                         // writer sleep / stop / flush waits
  bool stop_ CRASHSIM_GUARDED_BY(mu_) = false;

  std::thread writer_;  // lint:allow(thread-primitives): the event-log writer is the module's one dedicated I/O thread, joined in the destructor
};

}  // namespace crashsim

#endif  // CRASHSIM_UTIL_EVENT_LOG_H_
