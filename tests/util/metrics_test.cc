#include "util/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace crashsim {
namespace {

TEST(CounterTest, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Add();
  c.Add(5);
  EXPECT_EQ(c.Value(), 6);
  c.Reset();
  EXPECT_EQ(c.Value(), 0);
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetOverwrites) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(42);
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
}

TEST(FixedHistogramTest, BucketsByUpperBound) {
  FixedHistogram h({8, 64, 512});
  ASSERT_EQ(h.num_buckets(), 4);  // 3 bounds + overflow
  h.Record(1);
  h.Record(8);    // boundary lands in (..8]
  h.Record(9);    // first value of (8..64]
  h.Record(512);
  h.Record(100000);  // overflow
  EXPECT_EQ(h.BucketCount(0), 2);
  EXPECT_EQ(h.BucketCount(1), 1);
  EXPECT_EQ(h.BucketCount(2), 1);
  EXPECT_EQ(h.BucketCount(3), 1);
  EXPECT_EQ(h.TotalCount(), 5);
  EXPECT_EQ(h.Sum(), 1 + 8 + 9 + 512 + 100000);
  EXPECT_DOUBLE_EQ(h.Mean(), static_cast<double>(h.Sum()) / 5.0);
}

TEST(FixedHistogramTest, SnapshotIsCumulativeWithInfBucket) {
  FixedHistogram h({8, 64, 512});
  h.Record(1);
  h.Record(8);
  h.Record(9);
  h.Record(512);
  h.Record(100000);  // overflow -> only the +Inf bucket grows
  const FixedHistogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.bounds, (std::vector<int64_t>{8, 64, 512}));
  // One cumulative count per bound plus the implicit +Inf bucket.
  ASSERT_EQ(snap.cumulative.size(), snap.bounds.size() + 1);
  EXPECT_EQ(snap.cumulative, (std::vector<int64_t>{2, 3, 4, 5}));
  EXPECT_EQ(snap.total, 5);
  EXPECT_EQ(snap.total, snap.cumulative.back());
  EXPECT_EQ(snap.sum, 1 + 8 + 9 + 512 + 100000);
}

TEST(FixedHistogramTest, ExponentialBucketsShape) {
  const std::vector<int64_t> bounds = ExponentialBuckets(1, 4.0, 5);
  EXPECT_EQ(bounds, (std::vector<int64_t>{1, 4, 16, 64, 256}));
}

TEST(MetricsRegistryTest, SameNameReturnsSameMetric) {
  MetricsRegistry registry;
  Counter& a = registry.counter("test.counter");
  Counter& b = registry.counter("test.counter");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.Value(), 3);

  Gauge& g1 = registry.gauge("test.gauge");
  Gauge& g2 = registry.gauge("test.gauge");
  EXPECT_EQ(&g1, &g2);

  FixedHistogram& h1 = registry.histogram("test.hist", {10, 100});
  FixedHistogram& h2 = registry.histogram("test.hist", {999});
  EXPECT_EQ(&h1, &h2);  // bounds of the first registration win
  EXPECT_EQ(h2.bounds(), (std::vector<int64_t>{10, 100}));
}

TEST(MetricsRegistryTest, SnapshotsAreNameSorted) {
  MetricsRegistry registry;
  registry.counter("z.last").Add(1);
  registry.counter("a.first").Add(2);
  registry.gauge("mid.gauge").Set(9);
  const MetricSamples snapshot = registry.Snapshot();
  const std::vector<MetricSample>& counters = snapshot.counters;
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].name, "a.first");
  EXPECT_EQ(counters[0].value, 2);
  EXPECT_EQ(counters[1].name, "z.last");
  EXPECT_EQ(counters[1].value, 1);
  const std::vector<MetricSample>& gauges = snapshot.gauges;
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].name, "mid.gauge");
  EXPECT_EQ(gauges[0].value, 9);
}

TEST(MetricsRegistryTest, ResetCountersForTestZeroesCountersOnly) {
  MetricsRegistry registry;
  registry.counter("c").Add(5);
  registry.gauge("g").Set(5);
  registry.ResetCountersForTest();
  EXPECT_EQ(registry.counter("c").Value(), 0);
  EXPECT_EQ(registry.gauge("g").Value(), 5);
}

TEST(MetricsRegistryTest, GlobalIsStableAcrossCalls) {
  MetricsRegistry& a = MetricsRegistry::Global();
  MetricsRegistry& b = MetricsRegistry::Global();
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistryTest, PrometheusExportFollowsTextFormat) {
  MetricsRegistry registry;
  registry.counter("queries.completed").Add(3);
  registry.gauge("pool.threads").Set(2);
  FixedHistogram& h = registry.histogram("query_ms", {1, 10});
  h.Record(1);
  h.Record(5);
  h.Record(500);
  const std::string text = RenderPrometheusText(registry.Snapshot());

  // Counters: crashsim_ prefix, sanitised name, _total suffix, TYPE line.
  EXPECT_NE(text.find("# TYPE crashsim_queries_completed_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("crashsim_queries_completed_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE crashsim_pool_threads gauge"),
            std::string::npos);
  EXPECT_NE(text.find("crashsim_pool_threads 2"), std::string::npos);

  // Histograms: cumulative buckets, closing +Inf, _sum and _count.
  EXPECT_NE(text.find("# TYPE crashsim_query_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("crashsim_query_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("crashsim_query_ms_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("crashsim_query_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("crashsim_query_ms_sum 506"), std::string::npos);
  EXPECT_NE(text.find("crashsim_query_ms_count 3"), std::string::npos);
  // Exposition ends with a newline (required by the 0.0.4 text format).
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

// A component ledger renders beside the registry's metrics in one
// exposition: name-sorted within each kind, a gauge always, a counter once
// it is non-zero (as a registry counter appears on its first lookup).
TEST(MetricsRegistryTest, LedgerSamplesRenderBesideTheRegistry) {
  MetricsRegistry registry;
  registry.counter("z.registry").Add(1);
  MetricSamples samples = registry.Snapshot();
  const LedgerValue ledger[] = {
      {"hits", 3}, {"misses", 0}, {"bytes", 0, /*gauge=*/true}};
  samples.AddLedger("cache", ledger);
  const std::string text = RenderPrometheusText(std::move(samples));

  const size_t hits = text.find(
      "# TYPE crashsim_cache_hits_total counter\n"
      "crashsim_cache_hits_total 3\n");
  ASSERT_NE(hits, std::string::npos) << text;
  EXPECT_LT(hits, text.find("crashsim_z_registry_total 1"));
  EXPECT_EQ(text.find("crashsim_cache_misses"), std::string::npos);
  EXPECT_NE(text.find("# TYPE crashsim_cache_bytes gauge\n"
                      "crashsim_cache_bytes 0\n"),
            std::string::npos);
}

TEST(SlidingHistogramTest, WindowMergesOnlyRecentSlots) {
  SlidingHistogram h({10, 100}, /*window_seconds=*/3);
  h.RecordAt(5, 1000);    // in window at t=1002
  h.RecordAt(50, 1001);   // in window
  h.RecordAt(500, 1002);  // in window
  const FixedHistogram::Snapshot now = h.WindowSnapshotAt(1002);
  EXPECT_EQ(now.total, 3);
  ASSERT_EQ(now.cumulative.size(), 3u);
  EXPECT_EQ(now.cumulative[0], 1);  // <= 10
  EXPECT_EQ(now.cumulative[1], 2);  // <= 100
  EXPECT_EQ(now.cumulative[2], 3);  // overflow
  // One second later the window is (1000, 1003]: the t=1000 slot aged out.
  const FixedHistogram::Snapshot later = h.WindowSnapshotAt(1003);
  EXPECT_EQ(later.total, 2);
  // Two more seconds and only the t=1002 slot remains.
  EXPECT_EQ(h.WindowSnapshotAt(1004).total, 1);
}

TEST(SlidingHistogramTest, SlotRecyclesWhenItsSecondComesAround) {
  SlidingHistogram h({10}, /*window_seconds=*/2);
  h.RecordAt(1, 100);
  h.RecordAt(1, 101);
  // Second 102 reuses the slot that held second 100; the old counts must
  // not leak into the fresh second.
  h.RecordAt(1, 102);
  const FixedHistogram::Snapshot snap = h.WindowSnapshotAt(102);
  EXPECT_EQ(snap.total, 2);  // seconds 101 + 102 only
}

TEST(SlidingHistogramTest, EmptyWindowQuantileIsZero) {
  SlidingHistogram h({10, 100}, /*window_seconds=*/5);
  EXPECT_EQ(SlidingHistogram::SnapshotQuantile(h.WindowSnapshotAt(10), 0.5),
            0);
  h.RecordAt(5, 10);
  // 1000 seconds later nothing is left in the window.
  EXPECT_EQ(SlidingHistogram::SnapshotQuantile(h.WindowSnapshotAt(1010), 0.5),
            0);
}

TEST(SlidingHistogramTest, NearestRankQuantilesResolveToBucketBounds) {
  SlidingHistogram h({1, 2, 4, 8, 16}, /*window_seconds=*/60);
  // 90 fast (<=1ms), 10 slow (<=16ms) at the same second.
  for (int i = 0; i < 90; ++i) h.RecordAt(1, 500);
  for (int i = 0; i < 10; ++i) h.RecordAt(16, 500);
  const FixedHistogram::Snapshot snap = h.WindowSnapshotAt(500);
  EXPECT_EQ(SlidingHistogram::SnapshotQuantile(snap, 0.50), 1);
  EXPECT_EQ(SlidingHistogram::SnapshotQuantile(snap, 0.95), 16);
  EXPECT_EQ(SlidingHistogram::SnapshotQuantile(snap, 0.99), 16);
}

TEST(SlidingHistogramTest, OverflowQuantileReportsLastFiniteBound) {
  SlidingHistogram h({1, 2}, /*window_seconds=*/60);
  h.RecordAt(1000, 7);  // overflow bucket
  EXPECT_EQ(SlidingHistogram::SnapshotQuantile(h.WindowSnapshotAt(7), 0.99),
            2);
}

TEST(SlidingHistogramTest, SteadyClockPathRecordsIntoCurrentWindow) {
  SlidingHistogram h({10, 100}, /*window_seconds=*/60);
  h.Record(5);
  h.Record(50);
  const FixedHistogram::Snapshot snap = h.WindowSnapshot();
  EXPECT_EQ(snap.total, 2);
  EXPECT_EQ(SlidingHistogram::SnapshotQuantile(snap, 1.0), 100);
}

}  // namespace
}  // namespace crashsim
