// Deadline/cancellation semantics of the context-aware query paths: the
// anytime determinism guarantee (a run cut short at k trials equals a fresh
// run planned for k trials), the achieved error bound, and graceful Status
// propagation instead of CHECK aborts.
#include "core/query_context.h"

#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/crashsim.h"
#include "core/crashsim_t.h"
#include "datasets/datasets.h"
#include "graph/generators.h"
#include "simrank/monte_carlo.h"
#include "simrank/probesim.h"
#include "simrank/reads.h"
#include "simrank/sling.h"
#include "simrank/walk.h"
#include "util/rng.h"

namespace crashsim {
namespace {

CrashSimOptions Options(int64_t trials, uint64_t seed = 42) {
  CrashSimOptions opt;
  opt.mc.c = 0.6;
  opt.mc.trials_override = trials;
  opt.mc.seed = seed;
  return opt;
}

Graph TestGraph(NodeId n = 200, uint64_t seed = 5) {
  Rng rng(seed);
  return BarabasiAlbert(n, 3, /*undirected=*/true, &rng);
}

TEST(QueryContextTest, UnboundedContextAlwaysOk) {
  QueryContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_TRUE(ctx.Check().ok());
}

TEST(QueryContextTest, ExpiredDeadlineReportsDeadlineExceeded) {
  QueryContext ctx(std::chrono::milliseconds(0));
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryContextTest, FutureDeadlineIsOkUntilItPasses) {
  QueryContext ctx(std::chrono::hours(1));
  EXPECT_TRUE(ctx.Check().ok());
}

TEST(QueryContextTest, CancelReportsCancelled) {
  QueryContext ctx;
  EXPECT_FALSE(ctx.cancelled());
  ctx.Cancel();
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

TEST(QueryContextTest, CancellationWinsOverExpiredDeadline) {
  QueryContext ctx(std::chrono::milliseconds(0));
  ctx.Cancel();
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

TEST(QueryContextTest, TrialProgressCountersAreVisible) {
  QueryContext ctx;
  EXPECT_EQ(ctx.trials_done(), 0);
  ctx.ReportTrials(17, 4096);
  EXPECT_EQ(ctx.trials_done(), 17);
  EXPECT_EQ(ctx.trials_target(), 4096);
}

// The core determinism contract: interrupting a run after its first trial
// block produces exactly the scores of a fresh run planned for that many
// trials with the same seed.
TEST(AnytimeCrashSimTest, ExpiredDeadlineYieldsOneTrialBlockDeterministically) {
  const Graph g = TestGraph();
  CrashSim algo(Options(5000, 9));
  algo.Bind(&g);
  const ReverseReachableTree tree = algo.BuildTree(3);
  std::vector<NodeId> cands(static_cast<size_t>(g.num_nodes()));
  std::iota(cands.begin(), cands.end(), 0);

  QueryContext ctx(std::chrono::milliseconds(0));
  const PartialResult cut = algo.PartialWithTree(tree, cands, &ctx);
  EXPECT_EQ(cut.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(cut.complete());
  ASSERT_EQ(cut.trials_done, 1);  // first block always runs
  EXPECT_EQ(cut.trials_target, 5000);
  ASSERT_EQ(cut.scores.size(), cands.size());

  CrashSim fresh(Options(1, 9));
  fresh.Bind(&g);
  const PartialResult full = fresh.PartialWithTree(tree, cands, nullptr);
  EXPECT_TRUE(full.complete());
  EXPECT_EQ(full.trials_done, 1);
  EXPECT_EQ(cut.scores, full.scores);
}

// Same contract under asynchronous cancellation: whatever trial count k the
// cancel happened to land on, a fresh run with trials_override = k matches
// bit for bit.
TEST(AnytimeCrashSimTest, CancelledAtTrialKMatchesFreshRunPlannedForK) {
  const Graph g = TestGraph(300, 8);
  constexpr int64_t kTarget = 8000;
  CrashSim algo(Options(kTarget, 11));
  algo.Bind(&g);
  const ReverseReachableTree tree = algo.BuildTree(0);
  std::vector<NodeId> cands(static_cast<size_t>(g.num_nodes()));
  std::iota(cands.begin(), cands.end(), 0);

  QueryContext ctx;
  std::thread canceller([&ctx] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    ctx.Cancel();
  });
  const PartialResult cut = algo.PartialWithTree(tree, cands, &ctx);
  canceller.join();

  ASSERT_GT(cut.trials_done, 0);
  if (cut.trials_done < kTarget) {
    EXPECT_EQ(cut.status.code(), StatusCode::kCancelled);
  } else {
    EXPECT_TRUE(cut.complete());  // machine outran the cancel; still valid
  }

  CrashSim fresh(Options(cut.trials_done, 11));
  fresh.Bind(&g);
  const PartialResult full = fresh.PartialWithTree(tree, cands, nullptr);
  EXPECT_TRUE(full.complete());
  EXPECT_EQ(full.trials_done, cut.trials_done);
  EXPECT_EQ(cut.scores, full.scores);
}

TEST(AnytimeCrashSimTest, EpsilonAchievedMatchesTheAnytimeBound) {
  const Graph g = TestGraph();
  CrashSim algo(Options(5000, 9));
  algo.Bind(&g);
  // Pre-build the tree so the expired deadline cuts the trial loop, not the
  // tree construction — the first trial block is then guaranteed to run, no
  // matter how slow the machine (or sanitizer) is.
  const ReverseReachableTree tree = algo.BuildTree(3);
  std::vector<NodeId> cands(static_cast<size_t>(g.num_nodes()));
  std::iota(cands.begin(), cands.end(), 0);
  QueryContext ctx(std::chrono::milliseconds(0));
  const PartialResult cut = algo.PartialWithTree(tree, cands, &ctx);
  ASSERT_GT(cut.trials_done, 0);

  const double c = 0.6;
  const double delta = algo.options().mc.delta;
  const int l_max = algo.LMax();
  const double sqrt_c = std::sqrt(c);
  const double p = 1.0 - std::pow(sqrt_c, l_max);
  const double eps_t = std::pow(sqrt_c, l_max);
  const double expected =
      std::sqrt(3.0 * c *
                std::log(static_cast<double>(g.num_nodes()) / delta) /
                static_cast<double>(cut.trials_done)) +
      p * eps_t;
  EXPECT_NEAR(cut.epsilon_achieved, expected, 1e-12);
  EXPECT_NEAR(cut.epsilon_achieved,
              CrashSimAchievedEpsilon(c, delta, g.num_nodes(), l_max,
                                      cut.trials_done),
              1e-12);
}

TEST(AnytimeCrashSimTest, CompletedRunIsOkAndSelfScoreIsOne) {
  const Graph g = TestGraph(60);
  CrashSim algo(Options(400, 4));
  algo.Bind(&g);
  QueryContext ctx(std::chrono::hours(1));
  const PartialResult result = algo.SingleSource(7, &ctx);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.trials_done, 400);
  EXPECT_EQ(result.trials_target, 400);
  ASSERT_EQ(result.scores.size(), static_cast<size_t>(g.num_nodes()));
  EXPECT_DOUBLE_EQ(result.scores[7], 1.0);
  for (double s : result.scores) EXPECT_GE(s, 0.0);
  // Completed runs still report the bound their trial count supports.
  EXPECT_NEAR(result.epsilon_achieved,
              CrashSimAchievedEpsilon(0.6, algo.options().mc.delta,
                                      g.num_nodes(), algo.LMax(), 400),
              1e-12);
}

// The ctx-aware path is thread-count independent (unlike the legacy
// sequential stream): per-candidate RNG streams make parallel == sequential.
TEST(AnytimeCrashSimTest, ParallelAndSequentialContextPathsAgree) {
  const Graph g = TestGraph(80);
  CrashSimOptions seq = Options(600, 21);
  CrashSimOptions par = seq;
  par.num_threads = 4;
  CrashSim a(seq);
  CrashSim b(par);
  a.Bind(&g);
  b.Bind(&g);
  const PartialResult ra = a.SingleSource(2, nullptr);
  const PartialResult rb = b.SingleSource(2, nullptr);
  EXPECT_TRUE(ra.complete());
  EXPECT_TRUE(rb.complete());
  EXPECT_EQ(ra.scores, rb.scores);
}

TEST(AnytimeCrashSimTest, NullContextMatchesUnboundedContext) {
  const Graph g = TestGraph(60);
  CrashSim algo(Options(300, 6));
  algo.Bind(&g);
  QueryContext unbounded;
  const PartialResult with_ctx = algo.SingleSource(1, &unbounded);
  const PartialResult without = algo.SingleSource(1, nullptr);
  EXPECT_EQ(with_ctx.scores, without.scores);
  EXPECT_EQ(with_ctx.trials_done, without.trials_done);
}

TEST(AnytimeCrashSimTest, InvalidSourceIsStatusNotCrash) {
  const Graph g = TestGraph(50);
  CrashSim algo(Options(100));
  algo.Bind(&g);
  const PartialResult result = algo.SingleSource(-1, nullptr);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.trials_done, 0);
}

TEST(AnytimeCrashSimTest, InvalidCandidateIsStatusNotCrash) {
  const Graph g = TestGraph(50);
  CrashSim algo(Options(100));
  algo.Bind(&g);
  const std::vector<NodeId> cands = {1, 2, 999};
  const PartialResult result = algo.Partial(0, cands, nullptr);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

// Every estimator, driven through the base interface, reports a bad source
// or candidate id as kInvalidArgument — never a crash or an out-of-bounds
// read.
TEST(EstimatorInterfaceTest, InvalidIdsAreStatusNotCrash) {
  const Graph g = TestGraph(50);
  SimRankOptions mc;
  mc.trials_override = 20;
  ReadsOptions ro;
  ro.r = 20;
  std::vector<std::unique_ptr<SimRankAlgorithm>> algos;
  algos.push_back(std::make_unique<CrashSim>(Options(100)));
  algos.push_back(std::make_unique<ProbeSim>(mc));
  algos.push_back(std::make_unique<Sling>(mc));
  algos.push_back(std::make_unique<Reads>(ro));
  algos.push_back(std::make_unique<PairwiseMonteCarlo>(mc));
  for (const std::unique_ptr<SimRankAlgorithm>& algo : algos) {
    SCOPED_TRACE(algo->name());
    algo->Bind(&g);
    for (const NodeId bad : {NodeId{-1}, NodeId{50}}) {
      const PartialResult source = algo->SingleSource(bad, nullptr);
      EXPECT_EQ(source.status.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(source.trials_done, 0);
      const std::vector<NodeId> cands = {1, 2, bad};
      EXPECT_EQ(algo->Partial(0, cands, nullptr).status.code(),
                StatusCode::kInvalidArgument);
    }
    const std::vector<NodeId> good = {1, 2, 3};
    EXPECT_TRUE(algo->Partial(0, good, nullptr).complete());
  }
}

TEST(AnytimeCrashSimTest, DeadlineDuringTreeBuildReportsZeroTrials) {
  const Graph g = TestGraph(50);
  CrashSim algo(Options(100));
  algo.Bind(&g);
  QueryContext ctx(std::chrono::milliseconds(0));
  // SingleSource goes through tree construction, whose per-level checkpoint
  // fires before any trial can run.
  const PartialResult result = algo.SingleSource(0, &ctx);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.trials_done, 0);
  EXPECT_TRUE(std::isinf(result.epsilon_achieved));
}

TEST(OptionsValidationTest, SimRankOptionsRejectBadDomains) {
  SimRankOptions opt;
  opt.c = 1.5;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt.c = 0.6;
  opt.delta = 0.0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt.delta = 0.01;
  opt.epsilon = -0.1;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt.epsilon = 0.025;
  EXPECT_TRUE(opt.Validate().ok());
}

TEST(OptionsValidationTest, CrashSimOptionsRejectBadKnobs) {
  CrashSimOptions opt;
  opt.num_threads = 0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt.num_threads = 1;
  opt.diag_samples = 0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt.diag_samples = 100;
  opt.tree_prune_threshold = -1.0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt.tree_prune_threshold = 1e-9;
  EXPECT_TRUE(opt.Validate().ok());
  // The nested Monte-Carlo options are validated too.
  opt.mc.c = 0.0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(AnytimeCrashSimTTest, ExpiredDeadlineReturnsGracefulPrefixAnswer) {
  const Dataset ds = MakeDataset("as733", 0.015, 6);
  CrashSimTOptions opt;
  opt.crashsim.mc.c = 0.6;
  opt.crashsim.mc.trials_override = 1500;
  opt.crashsim.mc.seed = 42;
  CrashSimT engine(opt);
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 2;
  q.begin_snapshot = 0;
  q.end_snapshot = 5;
  q.theta = 0.01;

  QueryContext ctx(std::chrono::milliseconds(0));
  const TemporalAnswer answer = engine.Answer(ds.temporal, q, &ctx);
  EXPECT_EQ(answer.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(answer.complete());
  EXPECT_EQ(answer.stats.snapshots_processed, 0);
}

TEST(AnytimeCrashSimTTest, UnboundedContextProcessesWholeInterval) {
  const Dataset ds = MakeDataset("as733", 0.015, 5);
  CrashSimTOptions opt;
  opt.crashsim.mc.c = 0.6;
  opt.crashsim.mc.trials_override = 800;
  opt.crashsim.mc.seed = 42;
  CrashSimT engine(opt);
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 2;
  q.begin_snapshot = 0;
  q.end_snapshot = 4;
  q.theta = 0.01;

  const TemporalAnswer answer = engine.Answer(ds.temporal, q, nullptr);
  EXPECT_TRUE(answer.complete());
  EXPECT_EQ(answer.stats.snapshots_processed, 5);
}

TEST(AnytimeCrashSimTTest, ContextAnswerIsDeterministic) {
  const Dataset ds = MakeDataset("as733", 0.015, 5);
  CrashSimTOptions opt;
  opt.crashsim.mc.c = 0.6;
  opt.crashsim.mc.trials_override = 800;
  opt.crashsim.mc.seed = 13;
  CrashSimT a(opt);
  CrashSimT b(opt);
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 3;
  q.begin_snapshot = 0;
  q.end_snapshot = 4;
  q.theta = 0.02;
  EXPECT_EQ(a.Answer(ds.temporal, q, nullptr).nodes,
            b.Answer(ds.temporal, q, nullptr).nodes);
}

TEST(AnytimeCrashSimTTest, InvalidIntervalIsStatusNotCrash) {
  const Dataset ds = MakeDataset("as733", 0.015, 4);
  CrashSimTOptions opt;
  opt.crashsim.mc.trials_override = 100;
  CrashSimT engine(opt);
  TemporalQuery q;
  q.source = 0;
  q.begin_snapshot = 3;
  q.end_snapshot = 1;  // inverted
  const TemporalAnswer answer = engine.Answer(ds.temporal, q, nullptr);
  EXPECT_EQ(answer.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(answer.stats.snapshots_processed, 0);
}

TEST(AnytimeCrashSimTTest, OutOfRangeSnapshotIsStatusNotCrash) {
  const Dataset ds = MakeDataset("as733", 0.015, 4);
  CrashSimTOptions opt;
  opt.crashsim.mc.trials_override = 100;
  CrashSimT engine(opt);
  TemporalQuery q;
  q.source = 0;
  q.begin_snapshot = 0;
  q.end_snapshot = 99;
  const TemporalAnswer answer = engine.Answer(ds.temporal, q, nullptr);
  EXPECT_EQ(answer.status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace crashsim
