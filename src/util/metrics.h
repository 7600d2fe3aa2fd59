#ifndef CRASHSIM_UTIL_METRICS_H_
#define CRASHSIM_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace crashsim {

// Process-wide observability primitives: monotonic counters, last-value
// gauges, and fixed-bucket histograms, collected in a named registry.
// Counters and gauges are single relaxed atomics. Everything is lock-free
// after registration (the registry itself takes a mutex only when a metric
// is first named).
//
// Per-query statistics do NOT live here — they are carried by QueryStats
// (core/query_stats.h) through an explicit QueryContext sink, so callers
// opt in without global state. The registry is for process-lifetime signals
// (ParallelFor shard accounting, CLI query latency) that have no single
// query to attach to. Nor do instance ledgers live here: a QueryExecutor or
// TreeCache counts into its own Stats, and an exporter that owns one adds
// it to the exposition at render time (MetricSamples::AddLedger), so two
// instances in one process never sum into one family.

// Monotonic counter: one relaxed atomic. Registry counters are bumped once
// per ParallelFor call, failpoint evaluation, dropped trace event or d(w)
// estimate — never per walk — so their one shared cache line is not a
// contention point.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-written value (e.g. pool size, current capacity). Set/Value are
// single relaxed atomics.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket histogram for latency/size distributions. Bucket i counts
// values <= bounds[i] (and > bounds[i-1]); one implicit overflow bucket
// catches the rest. Bounds are fixed at registration, so Record() is a
// binary search plus one relaxed increment — safe from any thread.
class FixedHistogram {
 public:
  // Point-in-time read with *cumulative* bucket counts — the shape the
  // Prometheus exposition format requires: cumulative[i] counts values
  // <= bounds[i], and cumulative.back() is the +Inf bucket (== total, by
  // construction, even while writers race: total/sum are re-read relaxed,
  // so they may trail the bucket sums by in-flight Record()s; the
  // cumulative counts themselves are always internally consistent).
  struct Snapshot {
    std::vector<int64_t> bounds;      // ascending finite bucket bounds
    std::vector<int64_t> cumulative;  // bounds.size() + 1; last is +Inf
    int64_t total = 0;                // == cumulative.back()
    int64_t sum = 0;
  };

  // `bounds` must be non-empty and strictly ascending.
  explicit FixedHistogram(std::vector<int64_t> bounds);

  void Record(int64_t value);

  int64_t TotalCount() const {
    return total_.load(std::memory_order_relaxed);
  }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;
  // Bucket count; index num_buckets() - 1 is the overflow bucket.
  int64_t BucketCount(int bucket) const;
  int num_buckets() const { return static_cast<int>(counts_.size()); }
  const std::vector<int64_t>& bounds() const { return bounds_; }

  Snapshot TakeSnapshot() const;

 private:
  std::vector<int64_t> bounds_;
  std::vector<std::atomic<int64_t>> counts_;  // bounds_.size() + 1
  std::atomic<int64_t> total_{0};
  std::atomic<int64_t> sum_{0};
};

// Exponential bucket bounds {start, start*factor, ...} (count of them),
// the usual shape for latencies and sizes.
std::vector<int64_t> ExponentialBuckets(int64_t start, double factor,
                                        int count);

// Rolling time-windowed histogram: `window_seconds` one-second slots, each
// a FixedHistogram-shaped bucket array, recycled in place as the clock
// advances. Record() lands in the slot for the current (steady-clock)
// second; reads merge only the slots still inside the window, so a
// WindowSnapshot() taken now describes the last `window_seconds` seconds
// and old traffic ages out with no reset call. This is what /statusz rolls
// per-minute p50/p95/p99 and SLO burn from — the process-lifetime
// FixedHistogram above can only ever converge to its all-time shape.
//
// Mutex-protected (annotated wrapper): recording is once per request and
// reading once per scrape, so contention is irrelevant and the plain
// guarded arrays keep it trivially TSan-clean.
class SlidingHistogram {
 public:
  // `bounds` must be non-empty and strictly ascending; `window_seconds`
  // >= 1. Slot memory is allocated up front; Record() never allocates.
  SlidingHistogram(std::vector<int64_t> bounds, int window_seconds);

  void Record(int64_t value);
  // Test seam: records at an explicit second instead of the steady clock.
  void RecordAt(int64_t value, int64_t now_seconds);

  // Merged counts over the slots within [now - window, now], in the same
  // cumulative shape as FixedHistogram::Snapshot.
  FixedHistogram::Snapshot WindowSnapshot() const;
  FixedHistogram::Snapshot WindowSnapshotAt(int64_t now_seconds) const;

  int window_seconds() const { return static_cast<int>(slots_.size()); }
  const std::vector<int64_t>& bounds() const { return bounds_; }

  // Nearest-rank quantile (q in [0,1]) over an already-taken snapshot,
  // resolved to the upper bound of the containing bucket (the last finite
  // bound for the overflow bucket); 0 when the snapshot is empty. Take one
  // snapshot, derive many quantiles.
  static int64_t SnapshotQuantile(const FixedHistogram::Snapshot& snap,
                                  double q);

 private:
  struct Slot {
    int64_t second = -1;          // steady-clock second this slot holds
    std::vector<int64_t> counts;  // bounds_.size() + 1 (overflow last)
    int64_t total = 0;
    int64_t sum = 0;
  };

  mutable Mutex mu_;
  std::vector<int64_t> bounds_;
  std::vector<Slot> slots_ CRASHSIM_GUARDED_BY(mu_);
};

// One point-in-time metric read, for exposition.
struct MetricSample {
  std::string name;
  int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  FixedHistogram::Snapshot snapshot;
};

// One value of a component-owned ledger (QueryExecutor::Stats,
// TreeCache::Stats): `name` is its /statusz key and, under the component's
// prefix, its /metrics family. Gauges describe current state; every other
// value is a monotonic counter.
struct LedgerValue {
  const char* name;
  int64_t value;
  bool gauge = false;
};

// The samples of one exposition: a registry snapshot plus whatever
// component ledgers the exporter owns.
struct MetricSamples {
  std::vector<MetricSample> counters;
  std::vector<MetricSample> gauges;
  std::vector<HistogramSample> histograms;

  // Adds `values` as "<prefix>.<name>" samples: gauges always, counters
  // once non-zero, so a ledger counter's family appears on its first
  // increment, as a registry counter's does on its first lookup.
  void AddLedger(std::string_view prefix, std::span<const LedgerValue> values);
};

// Prometheus text exposition format (version 0.0.4): every metric name is
// sanitised to [a-zA-Z0-9_] and prefixed "crashsim_"; counters gain the
// "_total" suffix; histograms emit cumulative "_bucket" series with an
// le="+Inf" bucket plus "_sum"/"_count". Each kind is rendered in name
// order. Validated by tools/check_prometheus.py.
std::string RenderPrometheusText(MetricSamples samples);

// Named registry. Lookup-or-create takes a mutex; the returned references
// are stable for the registry's lifetime, so hot paths resolve a metric
// once (function-local static reference) and then touch only the metric.
class MetricsRegistry {
 public:
  // Process-wide instance (never destroyed; safe from static destructors).
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  // Registers the histogram with `bounds` on first use; later calls with
  // the same name return the existing instance (bounds ignored).
  FixedHistogram& histogram(const std::string& name,
                            std::vector<int64_t> bounds);

  // Point-in-time read of every metric, name-sorted within each kind.
  MetricSamples Snapshot() const;

  // Zeroes all counters (gauges and histogram contents are left alone —
  // gauges describe current state, histograms have no reset use case yet).
  void ResetCountersForTest();

 private:
  mutable Mutex mu_;
  // The maps hold the registration state; the pointed-to metrics are
  // lock-free and deliberately NOT guarded — the returned references are
  // stable for the registry's lifetime (that is the whole point of the
  // lookup-once idiom above).
  std::map<std::string, std::unique_ptr<Counter>> counters_
      CRASHSIM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      CRASHSIM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<FixedHistogram>> histograms_
      CRASHSIM_GUARDED_BY(mu_);
};

}  // namespace crashsim

#endif  // CRASHSIM_UTIL_METRICS_H_
