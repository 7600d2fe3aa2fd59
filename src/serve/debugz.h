#ifndef CRASHSIM_SERVE_DEBUGZ_H_
#define CRASHSIM_SERVE_DEBUGZ_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/json.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/trace.h"

namespace crashsim {

// Support pieces for the debug side of the metrics HTTP listener
// (docs/OBSERVABILITY.md "Request-scoped observability"): tolerant HTTP
// request-head reading, the per-request span-tree reassembler behind
// GET /tracez, and the bounded ring that retains the most recent sampled
// request traces.

// --- HTTP plumbing ----------------------------------------------------------

// Reads one HTTP request head (through the "\r\n\r\n" terminator) from fd,
// tolerating arbitrarily split writes — a scraper that sends "GET /st",
// pauses, then "atusz HTTP/1.1\r\n\r\n" still parses. Bounded: gives up
// after `timeout_ms` of cumulative waiting or 8 KiB of head, whichever
// comes first. kUnavailable on EOF/timeout before the terminator.
[[nodiscard]] StatusOr<std::string> ReadHttpRequestHead(int fd,
                                                        int timeout_ms = 2000);

// Method and path (query string stripped) of the request line; empty fields
// when the line is malformed.
struct HttpRequestLine {
  std::string method;
  std::string path;
};
HttpRequestLine ParseHttpRequestLine(const std::string& head);

// Writes status line + minimal headers + body, looping over partial
// send()s. Best effort — scrape sockets get no error channel anyway.
void SendHttpResponse(int fd, const std::string& status_line,
                      const std::string& content_type,
                      const std::string& body);

// --- request span trees -----------------------------------------------------

// Reassembles a quiesced RequestTrace into a span forest, one tree list per
// recording thread:
//
//   {"request_id": 17, "dropped": 0, "threads": [
//     {"tid": 0, "spans": [{"name": "serve.request", "start_us": 0.0,
//       "dur_us": 1234.5, "flow_out": [7], "children": [...]}, ...]}, ...]}
//
// Timestamps are microseconds relative to the request's first event. Spans
// still open at the end of the sequence are closed at the thread's last
// timestamp (snapshot semantics, same as the Chrome exporter); flow ids on
// a span tie a ParallelFor call ("flow_out") to the worker shards that ran
// it ("flow_in" on parallel_for.shard spans in other threads' lists).
//
// Caller contract: same as RequestTrace's read side — every writer joined.
JsonValue BuildSpanTreeJson(const RequestTrace& trace);
// The same reassembly over events copied out of a RequestTrace earlier
// (the /tracez ring keeps those, not the tree).
JsonValue BuildSpanTreeJson(uint64_t request_id, int64_t dropped,
                            std::span<const RequestTrace::Event> events);

// --- /tracez ring -----------------------------------------------------------

// Bounded ring of the most recent K sampled request traces, newest
// overwriting oldest. Mutex-guarded (annotated wrapper): one insert per
// sampled request and one scan per /tracez scrape.
class TracezRing {
 public:
  struct Entry {
    uint64_t request_id = 0;
    std::string op;
    std::string status;
    double elapsed_ms = 0.0;
    bool slow = false;  // retained because it crossed the slow threshold
    // The request's raw span events, copied out of its RequestTrace at
    // insert time (at most RequestTrace::kCapacity of them, 32 bytes each)
    // and reassembled with BuildSpanTreeJson at scrape time, so a full ring
    // holds kilobytes per entry rather than a parsed tree.
    int64_t dropped = 0;
    std::vector<RequestTrace::Event> events;
  };

  explicit TracezRing(size_t capacity);

  size_t capacity() const { return capacity_; }

  void Add(Entry entry);

  // Retained entries, newest first.
  std::vector<Entry> Snapshot() const;

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  std::vector<Entry> ring_ CRASHSIM_GUARDED_BY(mu_);  // capacity_ slots
  uint64_t added_ CRASHSIM_GUARDED_BY(mu_) = 0;
};

}  // namespace crashsim

#endif  // CRASHSIM_SERVE_DEBUGZ_H_
