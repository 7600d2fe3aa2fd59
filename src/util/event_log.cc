#include "util/event_log.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "util/string_util.h"

namespace crashsim {
namespace {

int64_t WallNowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// --- EventBuilder -----------------------------------------------------------

EventBuilder::EventBuilder(std::string_view event) {
  out_ = "{\"schema\": \"crashsim.event.v1\", \"ts_unix_ms\": ";
  out_ += StrFormat("%lld", static_cast<long long>(WallNowMillis()));
  Str("event", event);
}

void EventBuilder::Key(std::string_view key) {
  out_ += ", \"";
  out_ += key;  // verbatim by contract: ASCII, no escapes needed
  out_ += "\": ";
}

EventBuilder& EventBuilder::Str(std::string_view key, std::string_view value) {
  Key(key);
  AppendJsonString(value, &out_);
  return *this;
}

EventBuilder& EventBuilder::Int(std::string_view key, int64_t value) {
  Key(key);
  out_ += StrFormat("%lld", static_cast<long long>(value));
  return *this;
}

EventBuilder& EventBuilder::UInt(std::string_view key, uint64_t value) {
  Key(key);
  out_ += StrFormat("%llu", static_cast<unsigned long long>(value));
  return *this;
}

EventBuilder& EventBuilder::Double(std::string_view key, double value) {
  Key(key);
  if (std::isfinite(value)) {
    out_ += StrFormat("%.6g", value);
  } else {
    out_ += "null";
  }
  return *this;
}

EventBuilder& EventBuilder::Bool(std::string_view key, bool value) {
  Key(key);
  out_ += value ? "true" : "false";
  return *this;
}

EventBuilder& EventBuilder::Raw(std::string_view key, std::string_view json) {
  Key(key);
  out_.append(json.data(), json.size());
  return *this;
}

std::string EventBuilder::Finish() {
  out_ += '}';
  return std::move(out_);
}

// --- EventLog ---------------------------------------------------------------

EventLog::EventLog(const Options& options)
    : capacity_(std::max<size_t>(options.queue_capacity, 1)) {
  if (options.path.empty()) {
    out_ = stderr;
    ok_ = true;
  } else {
    out_ = std::fopen(options.path.c_str(), "a");
    if (out_ != nullptr) {
      owns_out_ = true;
      ok_ = true;
    } else {
      out_ = stderr;  // degrade to stderr rather than losing events
    }
  }
  // lint:allow(thread-primitives): one dedicated writer thread owned and joined by this object — log I/O must stay off the serving threads
  writer_ = std::thread([this] { WriterLoop(); });
}

EventLog::~EventLog() {
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  wake_.NotifyOne();
  writer_.join();
  if (owns_out_) std::fclose(out_);
}

void EventLog::Log(std::string line) {
  {
    const MutexLock lock(mu_);
    if (pending_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    pending_.push_back(std::move(line));
    ++enqueued_;
  }
  wake_.NotifyOne();
}

void EventLog::Flush() {
  MutexLock lock(mu_);
  const int64_t target = enqueued_;
  while (written_ < target) flushed_.Wait(mu_);
}

int64_t EventLog::dropped() const {
  const MutexLock lock(mu_);
  return dropped_;
}

void EventLog::WriterLoop() {
  MutexLock lock(mu_);
  for (;;) {
    while (pending_.empty() && !stop_) wake_.Wait(mu_);
    // The destructor sets stop_ only after the last Log() (no Log() races
    // the destructor), so an empty queue here means everything is written.
    if (pending_.empty()) return;
    std::deque<std::string> batch;
    batch.swap(pending_);
    lock.Unlock();
    // One fflush per batch amortises the syscall without holding lines
    // hostage.
    for (std::string& line : batch) {
      line += '\n';
      std::fwrite(line.data(), 1, line.size(), out_);
    }
    std::fflush(out_);
    lock.Lock();
    written_ += static_cast<int64_t>(batch.size());
    flushed_.NotifyAll();
  }
}

}  // namespace crashsim
