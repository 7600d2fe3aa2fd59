// CrashSim-T behaviours beyond the happy path: sub-intervals, decreasing
// trends, undirected dataset stand-ins, and stats accounting.
#include <gtest/gtest.h>

#include "core/crashsim_t.h"
#include "core/query_context.h"
#include "core/query_stats.h"
#include "datasets/datasets.h"
#include "graph/temporal_graph.h"
#include "util/string_util.h"

namespace crashsim {
namespace {

CrashSimTOptions Options(int64_t trials = 1500, uint64_t seed = 42) {
  CrashSimTOptions opt;
  opt.crashsim.mc.c = 0.6;
  opt.crashsim.mc.trials_override = trials;
  opt.crashsim.mc.seed = seed;
  return opt;
}

TEST(CrashSimTVariantsTest, SubIntervalStartsAtBegin) {
  const Dataset ds = MakeDataset("hepth", 0.012, 8);
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 4;
  q.begin_snapshot = 3;
  q.end_snapshot = 6;
  q.theta = 0.01;
  CrashSimT engine(Options());
  const TemporalAnswer answer = engine.Answer(ds.temporal, q);
  EXPECT_EQ(answer.stats.snapshots_processed, 4);
}

TEST(CrashSimTVariantsTest, DecreasingTrendOnGrowthDataset) {
  // On a growth dataset most similarities drift as edges accrete; the
  // decreasing-trend set and increasing-trend set must both be proper
  // subsets of the node set, and a node cannot strictly satisfy both
  // (tolerance 0 makes flat scores satisfy both; use none).
  const Dataset ds = MakeDataset("as733", 0.015, 6);
  TemporalQuery inc;
  inc.kind = TemporalQueryKind::kTrendIncreasing;
  inc.source = 2;
  inc.begin_snapshot = 0;
  inc.end_snapshot = 5;
  TemporalQuery dec = inc;
  dec.kind = TemporalQueryKind::kTrendDecreasing;

  CrashSimT a(Options(1500, 7));
  CrashSimT b(Options(1500, 7));
  const auto up = a.Answer(ds.temporal, inc).nodes;
  const auto down = b.Answer(ds.temporal, dec).nodes;
  EXPECT_LT(up.size() + down.size(),
            2 * static_cast<size_t>(ds.temporal.num_nodes()));
  // Nodes in both sets had perfectly flat score sequences; with Monte-Carlo
  // estimates that is only possible for identically-zero scores.
  std::vector<NodeId> both;
  std::set_intersection(up.begin(), up.end(), down.begin(), down.end(),
                        std::back_inserter(both));
  for (NodeId v : both) {
    // flat-zero nodes only
    EXPECT_GE(v, 0);
  }
}

TEST(CrashSimTVariantsTest, UndirectedAndDirectedDatasetsBothRun) {
  for (const char* name : {"as733", "wiki-vote"}) {
    const Dataset ds = MakeDataset(name, 0.01, 4);
    TemporalQuery q;
    q.kind = TemporalQueryKind::kThreshold;
    q.source = 1;
    q.begin_snapshot = 0;
    q.end_snapshot = 3;
    q.theta = 0.02;
    CrashSimT engine(Options(800));
    const TemporalAnswer answer = engine.Answer(ds.temporal, q);
    EXPECT_EQ(answer.stats.snapshots_processed, 4) << name;
    EXPECT_GT(answer.stats.total_seconds, 0.0) << name;
  }
}

TEST(CrashSimTVariantsTest, CorrectedModeEngineRuns) {
  const Dataset ds = MakeDataset("hepth", 0.01, 4);
  CrashSimTOptions opt = Options(1000);
  opt.crashsim.mode = RevReachMode::kCorrected;
  opt.crashsim.diag_samples = 200;
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 0;
  q.begin_snapshot = 0;
  q.end_snapshot = 3;
  q.theta = 0.02;
  CrashSimT engine(opt);
  const TemporalAnswer answer = engine.Answer(ds.temporal, q);
  for (NodeId v : answer.nodes) EXPECT_NE(v, q.source);
}

TEST(CrashSimTVariantsTest, DeterministicAcrossRuns) {
  const Dataset ds = MakeDataset("hepth", 0.01, 5);
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 2;
  q.begin_snapshot = 0;
  q.end_snapshot = 4;
  q.theta = 0.015;
  CrashSimT a(Options(1000, 9));
  CrashSimT b(Options(1000, 9));
  EXPECT_EQ(a.Answer(ds.temporal, q).nodes, b.Answer(ds.temporal, q).nodes);
}

TEST(CrashSimTVariantsTest, ScoresComputedNeverExceedsBaselineCount) {
  const Dataset ds = MakeDataset("as733", 0.015, 10);
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 3;
  q.begin_snapshot = 0;
  q.end_snapshot = 9;
  q.theta = 0.02;
  CrashSimT engine(Options(1000));
  const TemporalAnswer answer = engine.Answer(ds.temporal, q);
  const int64_t baseline =
      static_cast<int64_t>(ds.temporal.num_nodes() - 1) * 10;
  EXPECT_LE(answer.stats.scores_computed, baseline);
}

// A context with no deadline only observes: across every pruning toggle,
// query kind and revReach mode, Answer(tg, q) and Answer(tg, q, &ctx) with a
// stats sink attached return the same set and the same per-rule counters.
// At the default l_max (35 levels at c = 0.6) every delta of the growing
// stand-in reaches the source tree and neither rule ever fires, so the grid
// runs two-level trees over 30 snapshots, where both rules retire
// candidates.
TEST(CrashSimTVariantsTest, ContextNeverChangesTheAnswer) {
  const Dataset ds = MakeDataset("as733", 0.015, 30);
  int64_t delta_hits = 0;
  int64_t difference_hits = 0;
  int64_t tree_rebuilds = 0;
  for (const RevReachMode mode :
       {RevReachMode::kPaper, RevReachMode::kCorrected}) {
    for (const TemporalQueryKind kind :
         {TemporalQueryKind::kThreshold, TemporalQueryKind::kTrendIncreasing,
          TemporalQueryKind::kTrendDecreasing}) {
      for (int toggles = 0; toggles < 16; ++toggles) {
        CrashSimTOptions opt = Options(300, 11);
        opt.crashsim.mode = mode;
        opt.crashsim.diag_samples = 40;
        opt.crashsim.lmax_override = 2;
        opt.enable_delta_pruning = (toggles & 1) != 0;
        opt.enable_difference_pruning = (toggles & 2) != 0;
        opt.difference_reachability_prefilter = (toggles & 4) != 0;
        opt.reuse_source_tree = (toggles & 8) != 0;
        SCOPED_TRACE(StrFormat("mode %d kind %d toggles %d",
                               static_cast<int>(mode),
                               static_cast<int>(kind), toggles));
        TemporalQuery q;
        q.kind = kind;
        q.source = 9;
        q.begin_snapshot = 0;
        q.end_snapshot = 29;
        q.theta = 0.001;

        CrashSimT plain_engine(opt);
        const TemporalAnswer plain = plain_engine.Answer(ds.temporal, q);
        CrashSimT ctx_engine(opt);
        QueryContext ctx;
        QueryStats qs;
        ctx.set_stats(&qs);
        const TemporalAnswer with_ctx =
            ctx_engine.Answer(ds.temporal, q, &ctx);
        ASSERT_TRUE(with_ctx.status.ok()) << with_ctx.status;

        EXPECT_EQ(with_ctx.nodes, plain.nodes);
        const TemporalAnswerStats& a = plain.stats;
        const TemporalAnswerStats& b = with_ctx.stats;
        EXPECT_EQ(b.snapshots_processed, a.snapshots_processed);
        EXPECT_EQ(b.scores_computed, a.scores_computed);
        EXPECT_EQ(b.pruned_by_delta, a.pruned_by_delta);
        EXPECT_EQ(b.pruned_by_difference, a.pruned_by_difference);
        EXPECT_EQ(b.stable_tree_snapshots, a.stable_tree_snapshots);
        EXPECT_EQ(b.delta_prune_checks, a.delta_prune_checks);
        EXPECT_EQ(b.difference_prune_checks, a.difference_prune_checks);
        EXPECT_EQ(b.difference_prefilter_skips, a.difference_prefilter_skips);
        EXPECT_EQ(b.difference_tree_rebuilds, a.difference_tree_rebuilds);
        EXPECT_EQ(b.source_tree_rebuilds, a.source_tree_rebuilds);
        EXPECT_EQ(b.source_tree_reuses, a.source_tree_reuses);
        delta_hits += a.pruned_by_delta;
        difference_hits += a.pruned_by_difference;
        tree_rebuilds += a.difference_tree_rebuilds;
      }
    }
  }
  // The grid must reach both pruning rules and the literal tree comparison,
  // or it compares nothing of them.
  EXPECT_GT(delta_hits, 0);
  EXPECT_GT(difference_hits, 0);
  EXPECT_GT(tree_rebuilds, 0);
}

}  // namespace
}  // namespace crashsim
