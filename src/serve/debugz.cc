#include "serve/debugz.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <poll.h>
#include <sys/socket.h>

#include "util/timer.h"

namespace crashsim {
namespace {

constexpr size_t kMaxHeadBytes = 8192;
constexpr double kSendTimeoutMs = 2000;

}  // namespace

StatusOr<std::string> ReadHttpRequestHead(int fd, int timeout_ms) {
  std::string head;
  const Stopwatch timer;
  for (;;) {
    // A scraper may split the request line across arbitrarily many writes;
    // wait out the rest of the budget until the blank line lands.
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
    const int rc = poll(&pfd, 1, static_cast<int>(remaining_ms) + 1);
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
  // A scraper that requests a large body and never (or barely) reads must
  // not wedge the listener thread, and with it Shutdown, which joins that
  // thread: the whole response gets one budget, like the head read.
  const Stopwatch timer;
  size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n = send(fd, response.data() + sent, response.size() - sent,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    // Anything but a full socket buffer means the peer is gone.
    if (errno != EAGAIN && errno != EWOULDBLOCK) return;
    const double remaining_ms =
        kSendTimeoutMs - timer.ElapsedSeconds() * 1e3;
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    if (remaining_ms <= 0 ||
        poll(&pfd, 1, static_cast<int>(remaining_ms) + 1) == 0) {
      return;  // stalled past the budget: treat the peer as gone
    }
  }
}

namespace {

JsonValue FlowIds(const TraceSpanNode& node, TraceEvent::Phase phase) {
  JsonValue ids = JsonValue::Array();
  for (const TraceEvent& flow : node.flows) {
    if (flow.phase == phase) {
      ids.Append(JsonValue(static_cast<int64_t>(flow.flow_id)));
    }
  }
  return ids;
}

JsonValue SpanToJson(const TraceSpanNode& node, int64_t t0_ns) {
  JsonValue span = JsonValue::Object();
  span.Set("name", JsonValue(std::string(node.name)));
  span.Set("start_us",
           JsonValue(static_cast<double>(node.begin_ns - t0_ns) / 1e3));
  span.Set("dur_us",
           JsonValue(static_cast<double>(node.end_ns - node.begin_ns) / 1e3));
  JsonValue flow_out = FlowIds(node, TraceEvent::Phase::kFlowOut);
  if (!flow_out.items().empty()) span.Set("flow_out", std::move(flow_out));
  JsonValue flow_in = FlowIds(node, TraceEvent::Phase::kFlowIn);
  if (!flow_in.items().empty()) span.Set("flow_in", std::move(flow_in));
  if (!node.children.empty()) {
    JsonValue children = JsonValue::Array();
    for (const TraceSpanNode& child : node.children) {
      children.Append(SpanToJson(child, t0_ns));
    }
    span.Set("children", std::move(children));
  }
  return span;
}

}  // namespace

JsonValue BuildSpanTreeJson(const RequestTrace& trace) {
  const TraceSpanForest forest = BuildSpanForest(trace.events());
  JsonValue threads = JsonValue::Array();
  for (const TraceThreadSpans& thread_spans : forest.threads) {
    JsonValue thread = JsonValue::Object();
    thread.Set("tid", JsonValue(static_cast<int64_t>(thread_spans.tid)));
    JsonValue spans = JsonValue::Array();
    for (const TraceSpanNode& root : thread_spans.roots) {
      spans.Append(SpanToJson(root, forest.t0_ns));
    }
    thread.Set("spans", std::move(spans));
    threads.Append(std::move(thread));
  }

  JsonValue out = JsonValue::Object();
  out.Set("request_id", JsonValue(static_cast<int64_t>(trace.request_id())));
  out.Set("dropped", JsonValue(trace.dropped()));
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
