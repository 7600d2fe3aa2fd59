#include "util/metrics.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace crashsim {

FixedHistogram::FixedHistogram(std::vector<int64_t> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1) {
  CRASHSIM_CHECK(!bounds_.empty()) << "histogram needs at least one bound";
  CRASHSIM_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                 std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                     bounds_.end())
      << "histogram bounds must be strictly ascending";
}

void FixedHistogram::Record(int64_t value) {
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

double FixedHistogram::Mean() const {
  const int64_t n = TotalCount();
  return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
}

int64_t FixedHistogram::BucketCount(int bucket) const {
  if (bucket < 0 || bucket >= num_buckets()) return 0;
  return counts_[static_cast<size_t>(bucket)].load(std::memory_order_relaxed);
}

FixedHistogram::Snapshot FixedHistogram::TakeSnapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.cumulative.reserve(counts_.size());
  int64_t running = 0;
  for (const std::atomic<int64_t>& c : counts_) {
    running += c.load(std::memory_order_relaxed);
    snap.cumulative.push_back(running);
  }
  // The +Inf bucket defines the total so the invariant
  // cumulative.back() == total holds even mid-Record() (total_ may trail).
  snap.total = running;
  snap.sum = Sum();
  return snap;
}

std::vector<int64_t> ExponentialBuckets(int64_t start, double factor,
                                        int count) {
  CRASHSIM_CHECK(start > 0 && factor > 1.0 && count > 0);
  std::vector<int64_t> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double bound = static_cast<double>(start);
  for (int i = 0; i < count; ++i) {
    const int64_t b = static_cast<int64_t>(bound);
    // Guard against factor rounding collapsing adjacent integer bounds.
    if (bounds.empty() || b > bounds.back()) bounds.push_back(b);
    bound *= factor;
  }
  return bounds;
}

SlidingHistogram::SlidingHistogram(std::vector<int64_t> bounds,
                                   int window_seconds)
    : bounds_(std::move(bounds)) {
  CRASHSIM_CHECK(!bounds_.empty()) << "histogram needs at least one bound";
  CRASHSIM_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                 std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                     bounds_.end())
      << "histogram bounds must be strictly ascending";
  CRASHSIM_CHECK(window_seconds >= 1) << "window must be at least 1s";
  slots_.resize(static_cast<size_t>(window_seconds));
  for (Slot& s : slots_) s.counts.assign(bounds_.size() + 1, 0);
}

void SlidingHistogram::Record(int64_t value) {
  RecordAt(value, SteadyNowNanos() / 1'000'000'000);
}

void SlidingHistogram::RecordAt(int64_t value, int64_t now_seconds) {
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  const MutexLock lock(mu_);
  Slot& slot = slots_[static_cast<size_t>(now_seconds) % slots_.size()];
  if (slot.second != now_seconds) {
    // The slot last held a second at least a full window ago: recycle it.
    slot.second = now_seconds;
    std::fill(slot.counts.begin(), slot.counts.end(), int64_t{0});
    slot.total = 0;
    slot.sum = 0;
  }
  ++slot.counts[bucket];
  ++slot.total;
  slot.sum += value;
}

FixedHistogram::Snapshot SlidingHistogram::WindowSnapshot() const {
  return WindowSnapshotAt(SteadyNowNanos() / 1'000'000'000);
}

FixedHistogram::Snapshot SlidingHistogram::WindowSnapshotAt(
    int64_t now_seconds) const {
  FixedHistogram::Snapshot snap;
  snap.bounds = bounds_;
  std::vector<int64_t> counts(bounds_.size() + 1, 0);
  {
    const MutexLock lock(mu_);
    const int64_t window = static_cast<int64_t>(slots_.size());
    for (const Slot& slot : slots_) {
      // Keep slots from (now - window, now]; anything older is stale data
      // the writer has not recycled yet, anything newer is clock skew from
      // a racing writer and still within tolerance either way.
      if (slot.second < 0 || slot.second <= now_seconds - window ||
          slot.second > now_seconds) {
        continue;
      }
      for (size_t i = 0; i < counts.size(); ++i) counts[i] += slot.counts[i];
      snap.sum += slot.sum;
    }
  }
  int64_t running = 0;
  snap.cumulative.reserve(counts.size());
  for (const int64_t c : counts) {
    running += c;
    snap.cumulative.push_back(running);
  }
  snap.total = running;
  return snap;
}

int64_t SlidingHistogram::SnapshotQuantile(
    const FixedHistogram::Snapshot& snap, double q) {
  if (snap.total == 0) return 0;
  const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  // Nearest rank: the smallest bucket whose cumulative count reaches
  // ceil(q * total), resolved to its upper bound.
  int64_t rank = static_cast<int64_t>(
      clamped * static_cast<double>(snap.total) + 0.999999);
  if (rank < 1) rank = 1;
  if (rank > snap.total) rank = snap.total;
  for (size_t i = 0; i < snap.bounds.size(); ++i) {
    if (snap.cumulative[i] >= rank) return snap.bounds[i];
  }
  return snap.bounds.back();  // overflow bucket: the window's floor estimate
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

FixedHistogram& MetricsRegistry::histogram(const std::string& name,
                                           std::vector<int64_t> bounds) {
  const MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<FixedHistogram>(std::move(bounds));
  return *slot;
}

MetricSamples MetricsRegistry::Snapshot() const {
  const MutexLock lock(mu_);
  MetricSamples out;
  for (const auto& [name, counter] : counters_) {
    out.counters.push_back({name, counter->Value()});
  }
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.push_back({name, gauge->Value()});
  }
  for (const auto& [name, hist] : histograms_) {
    out.histograms.push_back({name, hist->TakeSnapshot()});
  }
  return out;
}

void MetricSamples::AddLedger(std::string_view prefix,
                              std::span<const LedgerValue> values) {
  for (const LedgerValue& v : values) {
    if (!v.gauge && v.value == 0) continue;
    (v.gauge ? gauges : counters)
        .push_back({std::string(prefix) + "." + v.name, v.value});
  }
}

namespace {

// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; the registry's
// dotted names map dots (and anything else outside the set) to underscores
// under a "crashsim_" prefix.
std::string PrometheusName(const std::string& name) {
  std::string out = "crashsim_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

template <typename T>
void SortByName(std::vector<T>* samples) {
  std::sort(samples->begin(), samples->end(),
            [](const T& a, const T& b) { return a.name < b.name; });
}

}  // namespace

std::string RenderPrometheusText(MetricSamples samples) {
  SortByName(&samples.counters);
  SortByName(&samples.gauges);
  SortByName(&samples.histograms);
  std::string out;
  for (const MetricSample& s : samples.counters) {
    const std::string name = PrometheusName(s.name) + "_total";
    out += StrFormat("# TYPE %s counter\n%s %lld\n", name.c_str(),
                     name.c_str(), static_cast<long long>(s.value));
  }
  for (const MetricSample& s : samples.gauges) {
    const std::string name = PrometheusName(s.name);
    out += StrFormat("# TYPE %s gauge\n%s %lld\n", name.c_str(), name.c_str(),
                     static_cast<long long>(s.value));
  }
  for (const HistogramSample& h : samples.histograms) {
    const std::string name = PrometheusName(h.name);
    out += StrFormat("# TYPE %s histogram\n", name.c_str());
    const FixedHistogram::Snapshot& snap = h.snapshot;
    for (size_t i = 0; i < snap.bounds.size(); ++i) {
      out += StrFormat("%s_bucket{le=\"%lld\"} %lld\n", name.c_str(),
                       static_cast<long long>(snap.bounds[i]),
                       static_cast<long long>(snap.cumulative[i]));
    }
    out += StrFormat("%s_bucket{le=\"+Inf\"} %lld\n", name.c_str(),
                     static_cast<long long>(snap.cumulative.back()));
    out += StrFormat("%s_sum %lld\n", name.c_str(),
                     static_cast<long long>(snap.sum));
    out += StrFormat("%s_count %lld\n", name.c_str(),
                     static_cast<long long>(snap.total));
  }
  return out;
}

void MetricsRegistry::ResetCountersForTest() {
  const MutexLock lock(mu_);
  for (const auto& [name, counter] : counters_) counter->Reset();
}

}  // namespace crashsim
