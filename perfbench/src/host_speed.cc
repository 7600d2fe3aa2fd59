#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/timer.h"

namespace perfbench {

namespace {
constexpr unsigned kEntries = 1u << 16;  // 256 KiB of 32-bit links
constexpr int kLoadsPerChunk = 40000;
constexpr int kMixesPerChunk = 600000;
}  // namespace

HostSpeedProbe::HostSpeedProbe() : next_(kEntries) {
  // Sattolo's shuffle: one cycle through every entry, in a fixed order.
  for (unsigned i = 0; i < kEntries; ++i) next_[i] = i;
  unsigned long long x = 0x9e3779b97f4a7c15ull;
  for (unsigned i = kEntries - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next_[i], next_[x % i]);
  }
}

HostSpeedProbe::~HostSpeedProbe() { Stop(); }

double HostSpeedProbe::Chunk() {
  const crashsim::Stopwatch t;
  unsigned p = cursor_;
  unsigned long long acc = mix_;
  for (int i = 0; i < kLoadsPerChunk; ++i) {
    p = next_[p];
    acc += p * 2654435761u;
  }
  for (int i = 0; i < kMixesPerChunk; ++i) {
    acc = acc * 6364136223846793005ull + 1442695040888963407ull;
  }
  cursor_ = p;
  mix_ = acc;
  return t.ElapsedMillis();
}

void HostSpeedProbe::Start() {
  stop_ = false;
  chunk_ms_.clear();
  thread_ = std::thread([this] {
    while (!stop_) {
      const double ms = Chunk();
      chunk_ms_.push_back(ms);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          std::min(10 * ms, 200.0)));
    }
  });
}

double HostSpeedProbe::Stop() {
  if (thread_.joinable()) {
    stop_ = true;
    thread_.join();
  }
  if (chunk_ms_.empty()) return 0.0;
  std::vector<double> v = chunk_ms_;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

}  // namespace perfbench
