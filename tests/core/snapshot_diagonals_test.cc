// The per-snapshot diagonal table behind served CrashSim-T queries:
// corrected-mode Bind is a pure function of (graph, options), so a shared
// d(w) per snapshot changes no answer, and the table fills each snapshot
// exactly once even under concurrent first use.
//
// The concurrency suite is named *ConcurrencyStress* so the tier-2
// tools.sanitize_thread_stress lane (CTEST_ARGS="-R ConcurrencyStress")
// runs it under TSan alongside CI's full TSan pass.
#include "core/snapshot_diagonals.h"

#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/crashsim_t.h"
#include "core/query_context.h"
#include "core/temporal_query.h"
#include "datasets/datasets.h"
#include "graph/temporal_graph.h"
#include "util/failpoint.h"
#include "util/metrics.h"

namespace crashsim {
namespace {

CrashSimTOptions CorrectedOptions(bool pruning = true) {
  CrashSimTOptions opt;
  opt.crashsim.mc.c = 0.6;
  opt.crashsim.mc.trials_override = 300;
  opt.crashsim.mc.seed = 42;
  opt.crashsim.mode = RevReachMode::kCorrected;
  opt.crashsim.diag_samples = 40;
  opt.enable_delta_pruning = pruning;
  opt.enable_difference_pruning = pruning;
  return opt;
}

int64_t EstimatesSoFar() {
  return MetricsRegistry::Global().counter("temporal.diag_estimates").Value();
}

TemporalQuery Query(TemporalQueryKind kind, int begin, int end) {
  TemporalQuery q;
  q.kind = kind;
  q.source = 2;
  q.begin_snapshot = begin;
  q.end_snapshot = end;
  q.theta = 0.02;
  return q;
}

TEST(SnapshotDiagonalsTest, BindIsIndependentOfEarlierBinds) {
  const Dataset ds = MakeDataset("as733", 0.015, 6);
  const CrashSimOptions options = CorrectedOptions().crashsim;
  CrashSim reused(options);
  SnapshotCursor cursor(&ds.temporal);
  ASSERT_TRUE(reused.Bind(&cursor.graph()).ok());
  for (int t = 1; t < ds.temporal.num_snapshots(); ++t) {
    cursor.Advance();
    ASSERT_TRUE(reused.Bind(&cursor.graph()).ok());
    CrashSim fresh(options);
    ASSERT_TRUE(fresh.Bind(&cursor.graph()).ok());
    ASSERT_EQ(reused.diagonal(), fresh.diagonal()) << "snapshot " << t;
    EXPECT_EQ(reused.SingleSource(2), fresh.SingleSource(2))
        << "snapshot " << t;
  }
}

// With pruning off, CrashSim-T's snapshot-t scores are exactly what a fresh
// CrashSim bound on snapshot t computes, whichever snapshot the window
// began at. The same filter fed those fresh scores must therefore reach
// the same answer; trend queries compare consecutive scores exactly, so a
// diagonal that depended on the window start would change them.
TEST(SnapshotDiagonalsTest, SnapshotScoresMatchAFreshBindWhateverTheStart) {
  const Dataset ds = MakeDataset("as733", 0.015, 6);
  const TemporalGraph& tg = ds.temporal;
  const CrashSimTOptions options = CorrectedOptions(/*pruning=*/false);
  SnapshotDiagonals table(&tg, options.crashsim);
  for (const TemporalQueryKind kind :
       {TemporalQueryKind::kThreshold, TemporalQueryKind::kTrendIncreasing,
        TemporalQueryKind::kTrendDecreasing}) {
    // Every window ends at snapshot 4 and starts somewhere before it.
    for (int begin = 0; begin <= 3; ++begin) {
      const TemporalQuery q = Query(kind, begin, 4);
      CandidateFilter filter(q, tg.num_nodes());
      for (int t = begin; t <= q.end_snapshot && filter.size() > 0; ++t) {
        const Graph g = tg.Snapshot(t);
        CrashSim fresh(options.crashsim);
        ASSERT_TRUE(fresh.Bind(&g).ok());
        filter.Observe(fresh.Partial(q.source, filter.candidates()));
      }
      CrashSimT uncached(options);
      CrashSimT cached(options, &table);
      EXPECT_EQ(uncached.Answer(tg, q).nodes, filter.candidates())
          << "kind " << static_cast<int>(kind) << " begin " << begin;
      EXPECT_EQ(cached.Answer(tg, q).nodes, filter.candidates())
          << "kind " << static_cast<int>(kind) << " begin " << begin;
    }
  }
}

TEST(SnapshotDiagonalsTest, CachedAnswersEqualUncachedWithAndWithoutContext) {
  const Dataset ds = MakeDataset("as733", 0.015, 6);
  const TemporalGraph& tg = ds.temporal;
  const CrashSimTOptions options = CorrectedOptions();
  SnapshotDiagonals table(&tg, options.crashsim);
  for (const TemporalQueryKind kind :
       {TemporalQueryKind::kThreshold, TemporalQueryKind::kTrendIncreasing,
        TemporalQueryKind::kTrendDecreasing}) {
    for (const auto& [begin, end] :
         std::vector<std::pair<int, int>>{{0, 5}, {2, 5}, {1, 3}}) {
      const TemporalQuery q = Query(kind, begin, end);
      CrashSimT uncached(options);
      const TemporalAnswer want = uncached.Answer(tg, q);
      ASSERT_GT(want.stats.snapshots_processed, 1);

      CrashSimT cached(options, &table);
      const TemporalAnswer plain = cached.Answer(tg, q);
      EXPECT_EQ(plain.nodes, want.nodes);
      EXPECT_EQ(plain.stats.snapshots_processed,
                want.stats.snapshots_processed);
      EXPECT_EQ(plain.stats.scores_computed, want.stats.scores_computed);

      QueryContext ctx;
      const TemporalAnswer with_ctx = cached.Answer(tg, q, &ctx);
      ASSERT_TRUE(with_ctx.status.ok()) << with_ctx.status;
      EXPECT_EQ(with_ctx.nodes, want.nodes);
      EXPECT_EQ(with_ctx.stats.snapshots_processed,
                want.stats.snapshots_processed);
      EXPECT_EQ(with_ctx.stats.scores_computed, want.stats.scores_computed);
    }
  }
}

TEST(SnapshotDiagonalsTest, FillsLazilyOncePerSnapshot) {
  const Dataset ds = MakeDataset("as733", 0.015, 6);
  const TemporalGraph& tg = ds.temporal;
  const CrashSimTOptions options = CorrectedOptions();
  const int64_t before = EstimatesSoFar();
  SnapshotDiagonals table(&tg, options.crashsim);
  EXPECT_EQ(EstimatesSoFar(), before);  // nothing estimated up front

  CrashSimT engine(options, &table);
  const TemporalQuery q = Query(TemporalQueryKind::kTrendIncreasing, 1, 3);
  const TemporalAnswer first = engine.Answer(tg, q);
  EXPECT_EQ(EstimatesSoFar() - before, first.stats.snapshots_processed);
  for (int repeat = 0; repeat < 3; ++repeat) engine.Answer(tg, q);
  EXPECT_EQ(EstimatesSoFar() - before, first.stats.snapshots_processed);
}

TEST(SnapshotDiagonalsTest, PaperModeStoresNothing) {
  const Dataset ds = MakeDataset("as733", 0.015, 4);
  CrashSimTOptions options = CorrectedOptions();
  options.crashsim.mode = RevReachMode::kPaper;
  const int64_t before = EstimatesSoFar();
  SnapshotDiagonals table(&ds.temporal, options.crashsim);
  const StatusOr<SharedDiagonal> none = table.Get(0, ds.temporal.Snapshot(0));
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_EQ(*none, nullptr);
  const TemporalQuery q = Query(TemporalQueryKind::kThreshold, 0, 3);
  CrashSimT uncached(options);
  CrashSimT cached(options, &table);
  EXPECT_EQ(cached.Answer(ds.temporal, q).nodes,
            uncached.Answer(ds.temporal, q).nodes);
  EXPECT_EQ(EstimatesSoFar(), before);
}

TEST(SnapshotDiagonalsTest, MatchesOnlyTheDiagonalDeterminingOptions) {
  const Dataset ds = MakeDataset("as733", 0.015, 3);
  const CrashSimOptions options = CorrectedOptions().crashsim;
  const SnapshotDiagonals table(&ds.temporal, options);
  CrashSimOptions other = options;
  other.mc.trials_override = 7;  // scoring knob: same diagonal
  other.num_threads = 3;
  EXPECT_TRUE(table.Matches(other));
  other = options;
  other.mc.seed = 43;
  EXPECT_FALSE(table.Matches(other));
  other = options;
  other.diag_samples = 41;
  EXPECT_FALSE(table.Matches(other));
  other = options;
  other.lmax_override = 3;
  EXPECT_FALSE(table.Matches(other));
  other = options;
  other.mode = RevReachMode::kPaper;
  EXPECT_FALSE(table.Matches(other));
}

TEST(SnapshotDiagonalsConcurrencyStressTest, ConcurrentFirstUseEstimatesOnce) {
  const Dataset ds = MakeDataset("as733", 0.015, 3);
  const TemporalGraph& tg = ds.temporal;
  const CrashSimOptions options = CorrectedOptions().crashsim;
  const Graph g = tg.Snapshot(1);
  SnapshotDiagonals table(&tg, options);
  constexpr int kThreads = 8;
  std::vector<SharedDiagonal> got(kThreads);
  const int64_t before = EstimatesSoFar();
  {
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        start.arrive_and_wait();
        const StatusOr<SharedDiagonal> diag = table.Get(1, g);
        ASSERT_TRUE(diag.ok()) << diag.status();
        got[static_cast<size_t>(i)] = *diag;
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(EstimatesSoFar() - before, 1);
  ASSERT_NE(got[0], nullptr);
  for (const SharedDiagonal& d : got) EXPECT_EQ(d.get(), got[0].get());
  CrashSim fresh(options);
  ASSERT_TRUE(fresh.Bind(&g).ok());
  EXPECT_EQ(*got[0], fresh.diagonal());
}

TEST(SnapshotDiagonalsConcurrencyStressTest, ConcurrentQueriesShareEstimates) {
  const Dataset ds = MakeDataset("as733", 0.015, 5);
  const TemporalGraph& tg = ds.temporal;
  const CrashSimTOptions options = CorrectedOptions();
  SnapshotDiagonals table(&tg, options.crashsim);
  const TemporalQuery q = Query(TemporalQueryKind::kTrendIncreasing, 0, 4);
  CrashSimT reference(options);
  const TemporalAnswer want = reference.Answer(tg, q);

  constexpr int kThreads = 4;
  std::vector<TemporalAnswer> got(kThreads);
  const int64_t before = EstimatesSoFar();
  {
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        CrashSimT engine(options, &table);
        QueryContext ctx;
        start.arrive_and_wait();
        got[static_cast<size_t>(i)] = engine.Answer(tg, q, &ctx);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(EstimatesSoFar() - before, want.stats.snapshots_processed);
  for (const TemporalAnswer& a : got) {
    ASSERT_TRUE(a.status.ok()) << a.status;
    EXPECT_EQ(a.nodes, want.nodes);
    EXPECT_EQ(a.stats.scores_computed, want.stats.scores_computed);
  }
}

TEST(SnapshotDiagonalsConcurrencyStressTest, FailedFillLeavesSlotRetryable) {
  const Dataset ds = MakeDataset("as733", 0.015, 3);
  const TemporalGraph& tg = ds.temporal;
  const CrashSimTOptions options = CorrectedOptions();
  const Graph g = tg.Snapshot(0);
  SnapshotDiagonals table(&tg, options.crashsim);
  const int64_t before = EstimatesSoFar();
  {
    FailpointScope failpoints(/*seed=*/5);
    FailpointSpec spec;
    spec.action = FailpointAction::kBadAlloc;
    spec.max_fires = 2;
    ASSERT_TRUE(ConfigureFailpoint("snapshot_diagonals.fill", spec).ok());
    EXPECT_EQ(table.Get(0, g).status().code(),
              StatusCode::kResourceExhausted);
    // Through the engine the same status ends the answer.
    CrashSimT engine(options, &table);
    QueryContext ctx;
    const TemporalAnswer cut =
        engine.Answer(tg, Query(TemporalQueryKind::kThreshold, 0, 2), &ctx);
    EXPECT_EQ(cut.status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(cut.stats.snapshots_processed, 0);
    EXPECT_EQ(FailpointFires("snapshot_diagonals.fill"), 2);
  }
  EXPECT_EQ(EstimatesSoFar(), before);  // no fill completed

  const StatusOr<SharedDiagonal> retried = table.Get(0, g);
  ASSERT_TRUE(retried.ok()) << retried.status();
  ASSERT_NE(*retried, nullptr);
  EXPECT_EQ(EstimatesSoFar() - before, 1);
  CrashSim fresh(options.crashsim);
  ASSERT_TRUE(fresh.Bind(&g).ok());
  EXPECT_EQ(**retried, fresh.diagonal());
}

}  // namespace
}  // namespace crashsim
