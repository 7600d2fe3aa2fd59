#include "util/event_log.h"

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

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", static_cast<unsigned>(
                                           static_cast<unsigned char>(c)));
        } else {
          out->push_back(c);
        }
    }
  }
}

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
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
  out_ += '"';
  AppendJsonEscaped(&out_, value);
  out_ += '"';
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

// --- BoundedQueue -----------------------------------------------------------

namespace event_log_internal {

BoundedQueue::BoundedQueue(size_t min_capacity) {
  const size_t cap = RoundUpPow2(min_capacity < 2 ? 2 : min_capacity);
  mask_ = cap - 1;
  cells_.reset(new Cell[cap]);
  for (size_t i = 0; i < cap; ++i) {
    cells_[i].seq.store(i, std::memory_order_relaxed);
  }
}

// Vyukov bounded MPMC: each cell carries a sequence stamp. A cell is free
// for the producer claiming ticket `pos` when seq == pos, and holds data
// for the consumer claiming ticket `pos` when seq == pos + 1. The CAS on
// the position counter hands out tickets; the seq store publishes the
// cell's payload (release) to whoever acquires it next.
bool BoundedQueue::TryPush(std::string&& value) {
  size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const size_t seq = cell.seq.load(std::memory_order_acquire);
    const auto diff =
        static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
    if (diff == 0) {
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        cell.value = std::move(value);
        cell.seq.store(pos + 1, std::memory_order_release);
        return true;
      }
    } else if (diff < 0) {
      return false;  // full: the cell still holds an unconsumed line
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
}

bool BoundedQueue::TryPop(std::string* out) {
  size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const size_t seq = cell.seq.load(std::memory_order_acquire);
    const auto diff =
        static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
    if (diff == 0) {
      if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        *out = std::move(cell.value);
        cell.value.clear();  // release the line's heap storage eagerly
        cell.seq.store(pos + mask_ + 1, std::memory_order_release);
        return true;
      }
    } else if (diff < 0) {
      return false;  // empty
    } else {
      pos = dequeue_pos_.load(std::memory_order_relaxed);
    }
  }
}

}  // namespace event_log_internal

// --- EventLog ---------------------------------------------------------------

EventLog::EventLog(const Options& options)
    : queue_(options.queue_capacity) {
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
  wake_.NotifyAll();
  writer_.join();
  if (owns_out_) std::fclose(out_);
}

void EventLog::Log(std::string line) {
  if (!queue_.TryPush(std::move(line))) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  enqueued_.fetch_add(1, std::memory_order_release);
  wake_.NotifyOne();  // no mutex held: a missed wake costs one poll interval
}

void EventLog::Flush() {
  const int64_t target = enqueued_.load(std::memory_order_acquire);
  MutexLock lock(mu_);
  while (flushed_.load(std::memory_order_acquire) < target) {
    wake_.NotifyAll();  // writer might be asleep with work pending
    wake_.WaitFor(mu_, std::chrono::milliseconds(2));
  }
}

void EventLog::WriterLoop() {
  int64_t written = 0;
  for (;;) {
    // Drain everything available, then flush once per batch: one fflush
    // per wakeup amortises the syscall without holding lines hostage.
    std::string line;
    bool wrote_any = false;
    while (queue_.TryPop(&line)) {
      line += '\n';
      std::fwrite(line.data(), 1, line.size(), out_);
      ++written;
      wrote_any = true;
    }
    if (wrote_any) {
      std::fflush(out_);
      flushed_.store(written, std::memory_order_release);
      wake_.NotifyAll();  // Flush() waiters
    }
    MutexLock lock(mu_);
    if (stop_) {
      lock.Unlock();
      // Producers are done by the destructor contract (no Log() races the
      // destructor); one final drain catches lines enqueued after the last
      // sweep but before stop_ was visible.
      while (queue_.TryPop(&line)) {
        line += '\n';
        std::fwrite(line.data(), 1, line.size(), out_);
        ++written;
      }
      std::fflush(out_);
      flushed_.store(written, std::memory_order_release);
      return;
    }
    // Bounded sleep: Log()'s lock-free notify may be missed, so cap the
    // added latency at one poll interval.
    wake_.WaitFor(mu_, std::chrono::milliseconds(5));
  }
}

}  // namespace crashsim
