#include "core/tree_cache.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/crashsim.h"
#include "graph/generators.h"
#include "util/failpoint.h"
#include "util/memory_budget.h"
#include "util/rng.h"
#include "util/status.h"

namespace crashsim {
namespace {

using std::chrono::milliseconds;

CrashSimOptions TestEngineOptions() {
  CrashSimOptions opt;
  opt.mc.trials_override = 100;
  opt.mc.seed = 17;
  return opt;
}

TreeCacheOptions MatchingCacheOptions(const CrashSimOptions& engine) {
  TreeCacheOptions opt;
  opt.c = engine.mc.c;
  opt.prune_threshold = engine.tree_prune_threshold;
  return opt;
}

std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> all(static_cast<size_t>(g.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

TEST(TreeCacheOptionsTest, ValidateRejectsBadValues) {
  TreeCacheOptions opt;
  opt.c = 0.0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TreeCacheOptions{};
  opt.c = 1.0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TreeCacheOptions{};
  opt.prune_threshold = -1e-3;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TreeCacheOptions{};
  opt.capacity_bytes = -1;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(TreeCacheOptions{}.Validate().ok());
}

TEST(TreeCacheTest, CachedTreeEqualsDirectBuild) {
  Rng rng(5);
  const Graph g = ErdosRenyi(300, 1500, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  ASSERT_TRUE(engine.Bind(&g).ok());

  TreeCache cache(&g, MatchingCacheOptions(eopt));
  QueryContext ctx;
  StatusOr<TreeCache::TreePtr> cached =
      cache.GetOrBuild(7, engine.LMax(), eopt.mode, &ctx);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_TRUE(**cached == engine.BuildTree(7));
}

TEST(TreeCacheTest, SecondLookupHitsAndDistinctKeysMiss) {
  Rng rng(5);
  const Graph g = ErdosRenyi(200, 900, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  ASSERT_TRUE(engine.Bind(&g).ok());
  TreeCache cache(&g, MatchingCacheOptions(eopt));

  QueryContext ctx;
  const int l_max = engine.LMax();
  ASSERT_TRUE(cache.GetOrBuild(3, l_max, eopt.mode, &ctx).ok());
  ASSERT_TRUE(cache.GetOrBuild(3, l_max, eopt.mode, &ctx).ok());
  ASSERT_TRUE(cache.GetOrBuild(4, l_max, eopt.mode, &ctx).ok());
  // Same source at a different l_max is a different tree: no false sharing.
  ASSERT_TRUE(cache.GetOrBuild(3, l_max - 1, eopt.mode, &ctx).ok());

  const TreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.trees, 3);
  EXPECT_GT(stats.bytes, 0);
}

// Walking against a cache-shared tree is bit-identical to the uncached
// Partial path over every node, including when many threads share one
// engine and one cached tree concurrently (ctx-path scores are a pure
// function of (seed, source, candidate)).
TEST(TreeCacheTest, ConcurrentSharedTreeQueriesAreBitIdenticalToUncached) {
  Rng rng(9);
  const Graph g = ErdosRenyi(300, 1500, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  ASSERT_TRUE(engine.Bind(&g).ok());

  constexpr NodeId kSource = 11;
  const std::vector<NodeId> all = AllNodes(g);
  QueryContext direct_ctx;
  const PartialResult expected = engine.Partial(kSource, all, &direct_ctx);
  ASSERT_TRUE(expected.status.ok());

  TreeCache cache(&g, MatchingCacheOptions(eopt));
  constexpr int kThreads = 8;
  std::vector<PartialResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryContext ctx;
      StatusOr<TreeCache::TreePtr> tree =
          cache.GetOrBuild(kSource, engine.LMax(), eopt.mode, &ctx);
      ASSERT_TRUE(tree.ok()) << tree.status().ToString();
      results[static_cast<size_t>(t)] =
          engine.PartialWithTree(**tree, all, &ctx);
    });
  }
  for (std::thread& t : threads) t.join();

  for (const PartialResult& r : results) {
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.trials_done, expected.trials_done);
    EXPECT_EQ(r.scores, expected.scores);
  }
  const TreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);  // one build total across all eight threads
  EXPECT_EQ(stats.hits + stats.coalesced, kThreads - 1);
}

// The serving path's correctness claim: sweeping a cache-shared tree, as
// served top-k does, is bit-identical to an uncached SingleSource, in both
// modes and with many threads sweeping one cached tree at once.
TEST(TreeCacheTest, ConcurrentSharedTreeSweepsEqualSingleSource) {
  Rng rng(10);
  const Graph g = ErdosRenyi(300, 1500, /*undirected=*/false, &rng);
  for (RevReachMode mode : {RevReachMode::kPaper, RevReachMode::kCorrected}) {
    CrashSimOptions eopt = TestEngineOptions();
    eopt.mode = mode;
    CrashSim engine(eopt);
    ASSERT_TRUE(engine.Bind(&g).ok());
    constexpr NodeId kSource = 11;
    const PartialResult expected = engine.SingleSource(kSource, nullptr);
    ASSERT_TRUE(expected.status.ok());

    TreeCache cache(&g, MatchingCacheOptions(eopt));
    constexpr int kThreads = 8;
    std::vector<PartialResult> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        QueryContext ctx;
        StatusOr<TreeCache::TreePtr> tree =
            cache.GetOrBuild(kSource, engine.LMax(), eopt.mode, &ctx);
        ASSERT_TRUE(tree.ok()) << tree.status().ToString();
        results[static_cast<size_t>(t)] = engine.SweepWithTree(**tree, &ctx);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const PartialResult& r : results) {
      ASSERT_TRUE(r.status.ok());
      EXPECT_EQ(r.trials_done, 0);
      EXPECT_EQ(r.epsilon_achieved, expected.epsilon_achieved);
      EXPECT_EQ(r.scores, expected.scores);
    }
    EXPECT_EQ(cache.stats().misses, 1);
  }
}

// Single-flight observability: with the build slowed by the rev_reach.build
// latency failpoint, threads arriving during the in-flight build must
// coalesce onto it (cache.coalesced > 0) instead of re-entering the builder
// path — the metric the smoke lane asserts on.
TEST(TreeCacheTest, InFlightBuildCoalescesWaiters) {
  Rng rng(13);
  const Graph g = ErdosRenyi(200, 900, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  ASSERT_TRUE(engine.Bind(&g).ok());
  TreeCache cache(&g, MatchingCacheOptions(eopt));

  FailpointScope failpoints(/*seed=*/3);
  FailpointSpec spec;
  spec.action = FailpointAction::kLatency;
  spec.latency_ms = 100;
  spec.max_fires = 1;  // only the first build is slowed
  ASSERT_TRUE(ConfigureFailpoint("rev_reach.build", spec).ok());

  std::atomic<bool> builder_started{false};
  std::thread builder([&] {
    QueryContext ctx;
    builder_started.store(true);
    StatusOr<TreeCache::TreePtr> tree =
        cache.GetOrBuild(2, engine.LMax(), eopt.mode, &ctx);
    EXPECT_TRUE(tree.ok());
  });
  while (!builder_started.load()) std::this_thread::yield();
  // Give the builder time to claim the slot and enter the slowed build.
  std::this_thread::sleep_for(milliseconds(20));

  QueryContext ctx;
  StatusOr<TreeCache::TreePtr> tree =
      cache.GetOrBuild(2, engine.LMax(), eopt.mode, &ctx);
  builder.join();
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  const TreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.coalesced, 1);
  EXPECT_EQ(stats.trees, 1);
}

// A waiter's own deadline is honoured while it waits on someone else's
// build: it gives up with kDeadlineExceeded, the builder still completes.
TEST(TreeCacheTest, WaiterDeadlineExpiresDuringInFlightBuild) {
  Rng rng(13);
  const Graph g = ErdosRenyi(200, 900, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  ASSERT_TRUE(engine.Bind(&g).ok());
  TreeCache cache(&g, MatchingCacheOptions(eopt));

  FailpointScope failpoints(/*seed=*/3);
  FailpointSpec spec;
  spec.action = FailpointAction::kLatency;
  spec.latency_ms = 200;
  spec.max_fires = 1;
  ASSERT_TRUE(ConfigureFailpoint("rev_reach.build", spec).ok());

  std::atomic<bool> builder_started{false};
  std::thread builder([&] {
    QueryContext ctx;
    builder_started.store(true);
    EXPECT_TRUE(cache.GetOrBuild(2, engine.LMax(), eopt.mode, &ctx).ok());
  });
  while (!builder_started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(milliseconds(20));

  QueryContext ctx(milliseconds(30));
  StatusOr<TreeCache::TreePtr> tree =
      cache.GetOrBuild(2, engine.LMax(), eopt.mode, &ctx);
  EXPECT_EQ(tree.status().code(), StatusCode::kDeadlineExceeded);
  builder.join();
  EXPECT_EQ(cache.stats().trees, 1);  // the build itself still landed
}

// A build shed by the builder's MemoryBudget surfaces kResourceExhausted and
// must NOT poison the slot: the next (budget-free) query builds normally.
TEST(TreeCacheTest, BudgetShedBuildIsNotCachedAndSlotRecovers) {
  Rng rng(21);
  const Graph g = ErdosRenyi(400, 3000, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  ASSERT_TRUE(engine.Bind(&g).ok());
  TreeCache cache(&g, MatchingCacheOptions(eopt));

  MemoryBudget tiny(64);  // far below any revReach scratch allocation
  QueryContext starved;
  starved.set_memory_budget(&tiny);
  StatusOr<TreeCache::TreePtr> shed =
      cache.GetOrBuild(1, engine.LMax(), eopt.mode, &starved);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cache.stats().trees, 0);

  QueryContext healthy;
  StatusOr<TreeCache::TreePtr> ok =
      cache.GetOrBuild(1, engine.LMax(), eopt.mode, &healthy);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(**ok == engine.BuildTree(1));
  EXPECT_EQ(cache.stats().trees, 1);
}

// A tree's footprint is exactly what it stores — each dense level's row,
// each sparse level's slice, and the per-level offsets — and the cache
// charges all of it: a capacity one byte short cannot keep the tree.
TEST(TreeCacheTest, DenseRowsCountAgainstCapacity) {
  Rng rng(31);
  const Graph g = ErdosRenyi(300, 1500, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  ASSERT_TRUE(engine.Bind(&g).ok());
  const ReverseReachableTree probe = engine.BuildTree(0);
  const ReverseReachableTree::DenseRows& rows = probe.EnsureDenseRows();
  ASSERT_FALSE(rows.prob.empty()) << "expected dense levels";
  int64_t slice_entries = 0;
  for (int l = 0; l <= probe.max_level(); ++l) {
    slice_entries += static_cast<int64_t>(probe.Level(l).size());
  }
  const int64_t levels = probe.num_levels();
  EXPECT_EQ(probe.MemoryBytes(),
            static_cast<int64_t>(rows.prob.size() * sizeof(float)) +
                slice_entries *
                    static_cast<int64_t>(sizeof(ReverseReachableTree::Entry)) +
                (2 * levels + 1) * static_cast<int64_t>(sizeof(int64_t)));

  TreeCacheOptions copt = MatchingCacheOptions(eopt);
  copt.capacity_bytes = probe.MemoryBytes() - 1;
  TreeCache cache(&g, copt);
  QueryContext ctx;
  StatusOr<TreeCache::TreePtr> tree =
      cache.GetOrBuild(0, engine.LMax(), eopt.mode, &ctx);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(**tree == probe);
  const TreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.trees, 0);
  EXPECT_EQ(stats.bytes, 0);
}

// A capacity of exactly three trees' footprints keeps all three resident:
// nothing beyond MemoryBytes() is charged.
TEST(TreeCacheTest, CapacityOfThreeTreesKeepsThreeResident) {
  Rng rng(31);
  const Graph g = ErdosRenyi(300, 1500, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  ASSERT_TRUE(engine.Bind(&g).ok());
  TreeCacheOptions copt = MatchingCacheOptions(eopt);
  copt.capacity_bytes = 0;
  for (NodeId u = 0; u < 3; ++u) {
    copt.capacity_bytes += engine.BuildTree(u).MemoryBytes();
  }
  TreeCache cache(&g, copt);
  QueryContext ctx;
  for (NodeId u = 0; u < 3; ++u) {
    ASSERT_TRUE(cache.GetOrBuild(u, engine.LMax(), eopt.mode, &ctx).ok());
  }
  const TreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.trees, 3);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.bytes, copt.capacity_bytes);
}

// LRU eviction under byte pressure: capacity for roughly one tree means
// inserting a second evicts the first, resident bytes stay bounded, and an
// evicted tree already handed to a query remains valid (shared ownership).
TEST(TreeCacheTest, EvictsLeastRecentlyUsedUnderCapacityPressure) {
  Rng rng(31);
  const Graph g = ErdosRenyi(300, 1500, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  ASSERT_TRUE(engine.Bind(&g).ok());

  QueryContext ctx;
  TreeCacheOptions copt = MatchingCacheOptions(eopt);
  // Size the capacity from a real build: one tree fits, two do not.
  const ReverseReachableTree probe = engine.BuildTree(0);
  copt.capacity_bytes = probe.MemoryBytes() * 3 / 2;
  TreeCache cache(&g, copt);

  StatusOr<TreeCache::TreePtr> first =
      cache.GetOrBuild(0, engine.LMax(), eopt.mode, &ctx);
  ASSERT_TRUE(first.ok());
  StatusOr<TreeCache::TreePtr> second =
      cache.GetOrBuild(1, engine.LMax(), eopt.mode, &ctx);
  ASSERT_TRUE(second.ok());

  const TreeCache::Stats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1);
  EXPECT_LE(stats.bytes, copt.capacity_bytes);
  // The evicted tree outlives its cache slot for the query still holding it.
  EXPECT_TRUE(**first == probe);

  // Re-querying the evicted key is a miss (it really is gone) ...
  const int64_t misses_before = cache.stats().misses;
  ASSERT_TRUE(cache.GetOrBuild(0, engine.LMax(), eopt.mode, &ctx).ok());
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

// Regression: an exception escaping the build — here a simulated allocation
// failure injected at the tree_cache.build failpoint — used to leave the
// in-flight slot behind with building == true and no builder. Every later
// query for that key then coalesced onto a build that no longer existed:
// deadline-free queries hung, deadline-bearing ones burned their whole
// budget and came back kDeadlineExceeded. The cache must convert the
// bad_alloc into kResourceExhausted, drop the slot, and let the next query
// rebuild the key normally.
TEST(TreeCacheTest, BadAllocDuringBuildDoesNotPoisonTheKey) {
  Rng rng(41);
  const Graph g = ErdosRenyi(200, 900, /*undirected=*/false, &rng);
  const CrashSimOptions eopt = TestEngineOptions();
  CrashSim engine(eopt);
  ASSERT_TRUE(engine.Bind(&g).ok());
  TreeCache cache(&g, MatchingCacheOptions(eopt));

  {
    FailpointScope failpoints(/*seed=*/7);
    FailpointSpec spec;
    spec.action = FailpointAction::kBadAlloc;
    spec.max_fires = 1;
    ASSERT_TRUE(ConfigureFailpoint("tree_cache.build", spec).ok());
    StatusOr<TreeCache::TreePtr> faulted =
        cache.GetOrBuild(3, engine.LMax(), eopt.mode, nullptr);
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(cache.stats().trees, 0);
  }

  // Pre-fix, this lookup found the leaked in-flight slot and waited for a
  // builder that did not exist until its deadline expired. The deadline
  // bounds the regression to a quick failure instead of a test hang.
  QueryContext ctx(milliseconds(2000));
  StatusOr<TreeCache::TreePtr> rebuilt =
      cache.GetOrBuild(3, engine.LMax(), eopt.mode, &ctx);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(**rebuilt == engine.BuildTree(3));
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().trees, 1);
}

}  // namespace
}  // namespace crashsim
