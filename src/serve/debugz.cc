#include "serve/debugz.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <utility>

#include <poll.h>
#include <sys/socket.h>

#include "util/timer.h"

namespace crashsim {
namespace {

constexpr size_t kMaxHeadBytes = 8192;

}  // namespace

StatusOr<std::string> ReadHttpRequestHead(int fd, int timeout_ms) {
  std::string head;
  const Stopwatch timer;
  for (;;) {
    // A scraper may split the request line across arbitrarily many writes;
    // keep polling until the blank line lands or the budget runs out.
    if (head.find("\r\n\r\n") != std::string::npos) return head;
    if (head.size() >= kMaxHeadBytes) {
      return InvalidArgumentError("HTTP request head exceeds 8 KiB");
    }
    const double remaining_ms =
        static_cast<double>(timeout_ms) - timer.ElapsedSeconds() * 1e3;
    if (remaining_ms <= 0) {
      return UnavailableError("timed out reading HTTP request head");
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc =
        poll(&pfd, 1, std::min(50, static_cast<int>(remaining_ms) + 1));
    if (rc < 0 && errno != EINTR) {
      return UnavailableError("poll failed reading HTTP request head");
    }
    if (rc <= 0) continue;
    char buf[1024];
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      return UnavailableError("peer closed before the HTTP head completed");
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return UnavailableError("recv failed reading HTTP request head");
    }
    head.append(buf, static_cast<size_t>(n));
  }
}

HttpRequestLine ParseHttpRequestLine(const std::string& head) {
  HttpRequestLine line;
  const size_t eol = head.find("\r\n");
  const std::string first =
      eol == std::string::npos ? head : head.substr(0, eol);
  const size_t sp1 = first.find(' ');
  if (sp1 == std::string::npos) return line;
  const size_t sp2 = first.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return line;
  line.method = first.substr(0, sp1);
  line.path = first.substr(sp1 + 1, sp2 - sp1 - 1);
  if (const size_t q = line.path.find('?'); q != std::string::npos) {
    line.path.resize(q);
  }
  return line;
}

void SendHttpResponse(int fd, const std::string& status_line,
                      const std::string& content_type,
                      const std::string& body) {
  std::string response = status_line + "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n = send(fd, response.data() + sent, response.size() - sent,
                           MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer gone; nothing useful to do on a scrape socket
    }
    sent += static_cast<size_t>(n);
  }
}

namespace {

// Intermediate span node: built first, converted to JsonValue second,
// because JsonValue's move-on-grow storage invalidates interior pointers
// while the bracket stack is still live.
struct SpanNode {
  const char* name = nullptr;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  std::vector<uint64_t> flow_out;
  std::vector<uint64_t> flow_in;
  std::vector<SpanNode> children;
};

JsonValue SpanToJson(const SpanNode& node, int64_t t0_ns) {
  JsonValue span = JsonValue::Object();
  span.Set("name", JsonValue(std::string(node.name)));
  span.Set("start_us",
           JsonValue(static_cast<double>(node.begin_ns - t0_ns) / 1e3));
  span.Set("dur_us",
           JsonValue(static_cast<double>(node.end_ns - node.begin_ns) / 1e3));
  if (!node.flow_out.empty()) {
    JsonValue flows = JsonValue::Array();
    for (const uint64_t id : node.flow_out) {
      flows.Append(JsonValue(static_cast<int64_t>(id)));
    }
    span.Set("flow_out", std::move(flows));
  }
  if (!node.flow_in.empty()) {
    JsonValue flows = JsonValue::Array();
    for (const uint64_t id : node.flow_in) {
      flows.Append(JsonValue(static_cast<int64_t>(id)));
    }
    span.Set("flow_in", std::move(flows));
  }
  if (!node.children.empty()) {
    JsonValue children = JsonValue::Array();
    for (const SpanNode& child : node.children) {
      children.Append(SpanToJson(child, t0_ns));
    }
    span.Set("children", std::move(children));
  }
  return span;
}

}  // namespace

JsonValue BuildSpanTreeJson(const RequestTrace& trace) {
  return BuildSpanTreeJson(trace.request_id(), trace.dropped(),
                           trace.events());
}

JsonValue BuildSpanTreeJson(uint64_t request_id, int64_t dropped,
                            std::span<const RequestTrace::Event> events) {
  // Slot claims are fetch_add-ordered, so filtering the slot sequence by
  // tid yields each thread's events in program order — well-bracketed
  // begin/end pairs with flow markers inside the enclosing span.
  std::map<uint32_t, std::vector<const RequestTrace::Event*>> by_tid;
  int64_t t0_ns = 0;
  for (const RequestTrace::Event& e : events) {
    if (t0_ns == 0 || e.ts_ns < t0_ns) t0_ns = e.ts_ns;
    by_tid[e.tid].push_back(&e);
  }

  JsonValue threads = JsonValue::Array();
  for (const auto& [tid, thread_events] : by_tid) {
    std::vector<SpanNode> roots;
    std::vector<SpanNode> stack;
    int64_t last_ts_ns = t0_ns;
    for (const RequestTrace::Event* e : thread_events) {
      last_ts_ns = std::max(last_ts_ns, e->ts_ns);
      switch (e->phase) {
        case TraceEvent::Phase::kBegin: {
          SpanNode node;
          node.name = e->name;
          node.begin_ns = e->ts_ns;
          node.end_ns = e->ts_ns;
          stack.push_back(std::move(node));
          break;
        }
        case TraceEvent::Phase::kEnd: {
          if (stack.empty()) break;  // truncated trace: end without begin
          SpanNode done = std::move(stack.back());
          stack.pop_back();
          done.end_ns = e->ts_ns;
          if (stack.empty()) {
            roots.push_back(std::move(done));
          } else {
            stack.back().children.push_back(std::move(done));
          }
          break;
        }
        case TraceEvent::Phase::kFlowOut:
          if (!stack.empty()) stack.back().flow_out.push_back(e->flow_id);
          break;
        case TraceEvent::Phase::kFlowIn:
          if (!stack.empty()) stack.back().flow_in.push_back(e->flow_id);
          break;
      }
    }
    // Spans still open when the trace filled up (or the snapshot was cut):
    // close them at the thread's last timestamp, innermost first.
    while (!stack.empty()) {
      SpanNode done = std::move(stack.back());
      stack.pop_back();
      done.end_ns = last_ts_ns;
      if (stack.empty()) {
        roots.push_back(std::move(done));
      } else {
        stack.back().children.push_back(std::move(done));
      }
    }
    JsonValue thread = JsonValue::Object();
    thread.Set("tid", JsonValue(static_cast<int64_t>(tid)));
    JsonValue spans = JsonValue::Array();
    for (const SpanNode& root : roots) {
      spans.Append(SpanToJson(root, t0_ns));
    }
    thread.Set("spans", std::move(spans));
    threads.Append(std::move(thread));
  }

  JsonValue out = JsonValue::Object();
  out.Set("request_id", JsonValue(static_cast<int64_t>(request_id)));
  out.Set("dropped", JsonValue(dropped));
  out.Set("threads", std::move(threads));
  return out;
}

TracezRing::TracezRing(size_t capacity) : capacity_(capacity) {
  const MutexLock lock(mu_);
  ring_.resize(capacity_);
}

void TracezRing::Add(Entry entry) {
  if (capacity_ == 0) return;
  const MutexLock lock(mu_);
  ring_[static_cast<size_t>(added_ % capacity_)] = std::move(entry);
  ++added_;
}

std::vector<TracezRing::Entry> TracezRing::Snapshot() const {
  std::vector<Entry> out;
  if (capacity_ == 0) return out;
  const MutexLock lock(mu_);
  const uint64_t count = std::min<uint64_t>(added_, capacity_);
  out.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    // Newest first: walk backwards from the most recent insert.
    out.push_back(ring_[static_cast<size_t>((added_ - 1 - i) % capacity_)]);
  }
  return out;
}

}  // namespace crashsim
