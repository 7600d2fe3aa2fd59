#ifndef CRASHSIM_UTIL_EVENT_LOG_H_
#define CRASHSIM_UTIL_EVENT_LOG_H_

#include <cstdint>
#include <cstdio>
#include <deque>
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
// which appends it to a bounded queue under a mutex; one dedicated writer
// thread sleeps on a condition variable until lines are pending, takes them
// all, and writes them with the mutex released. Log() holds the mutex only
// for the append and never does file I/O: when the queue is full the line
// is dropped and counted in dropped(), which a server owning the log
// exports as crashsim_eventlog_dropped_total — the serving hot path must
// degrade by losing log lines, never by stalling on a slow disk. Traffic is
// at most one line per served request, so the lock is rarely contended,
// and an idle writer sleeps until a line or the destructor wakes it.

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

class EventLog {
 public:
  struct Options {
    // Append target; empty writes to stderr (the crashsim_serve default
    // before --event_log is given).
    std::string path;
    // Lines that may be pending (enqueued, not yet taken by the writer);
    // 0 acts as 1. Overflow drops the newest line.
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
  // appends the newline). Safe from any thread; holds the mutex only for
  // the append, never across the writer's I/O.
  void Log(std::string line);

  // Blocks until every line enqueued before the call is written and
  // fflush()ed. Test/shutdown aid, not a hot-path call.
  void Flush();

  // Lines dropped on queue overflow since construction.
  int64_t dropped() const;

 private:
  void WriterLoop();

  const size_t capacity_;
  std::FILE* out_ = nullptr;  // borrowed stderr or owned fopen handle
  bool owns_out_ = false;
  bool ok_ = false;

  mutable Mutex mu_;
  CondVar wake_;     // writer: lines pending or stop_
  CondVar flushed_;  // Flush(): written_ advanced
  std::deque<std::string> pending_ CRASHSIM_GUARDED_BY(mu_);
  int64_t enqueued_ CRASHSIM_GUARDED_BY(mu_) = 0;  // lines accepted
  int64_t written_ CRASHSIM_GUARDED_BY(mu_) = 0;   // written, fflush()ed
  int64_t dropped_ CRASHSIM_GUARDED_BY(mu_) = 0;
  bool stop_ CRASHSIM_GUARDED_BY(mu_) = false;

  std::thread writer_;  // lint:allow(thread-primitives): the event-log writer is the module's one dedicated I/O thread, joined in the destructor
};

}  // namespace crashsim

#endif  // CRASHSIM_UTIL_EVENT_LOG_H_
