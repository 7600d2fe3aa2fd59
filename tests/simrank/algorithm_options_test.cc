// Behavioural tests of the tuning knobs each algorithm exposes: thresholds,
// sample counts, walk caps. Each test pins the *direction* a knob moves
// accuracy or work, not absolute values.
#include <cmath>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "simrank/monte_carlo.h"
#include "simrank/power_method.h"
#include "simrank/probesim.h"
#include "simrank/reads.h"
#include "simrank/sling.h"
#include "simrank/walk.h"
#include "util/rng.h"

namespace crashsim {
namespace {

Graph TestGraph() {
  Rng rng(21);
  return ErdosRenyi(60, 240, false, &rng);
}

TEST(ProbeSimOptionsTest, CoarsePruneThresholdOnlyDropsMass) {
  // Probe pruning discards probability mass, so a coarse threshold can only
  // lower scores (never raise them) relative to a fine one at equal seeds.
  const Graph g = TestGraph();
  SimRankOptions mc;
  mc.trials_override = 2000;
  mc.seed = 5;
  ProbeSim fine(mc);
  fine.set_prune_threshold(0.0);
  ASSERT_TRUE(fine.Bind(&g).ok());
  ProbeSim coarse(mc);
  coarse.set_prune_threshold(0.01);
  ASSERT_TRUE(coarse.Bind(&g).ok());
  const auto f = fine.SingleSource(2);
  const auto c = coarse.SingleSource(2);
  for (size_t v = 0; v < f.size(); ++v) {
    EXPECT_LE(c[v], f[v] + 1e-12) << "node " << v;
  }
}

TEST(ProbeSimOptionsTest, DirectedCyclePhasesNeverMeet) {
  // On a directed cycle, walks from distinct nodes keep distinct phases
  // forever, so every pairwise SimRank is exactly 0 — and the estimator must
  // report exactly 0, not merely something small.
  const Graph g = CycleGraph(8, false);
  SimRankOptions mc;
  mc.trials_override = 3000;
  ProbeSim algo(mc);
  ASSERT_TRUE(algo.Bind(&g).ok());
  const auto scores = algo.SingleSource(0);
  for (NodeId v = 1; v < 8; ++v) EXPECT_EQ(scores[static_cast<size_t>(v)], 0.0);
}

TEST(SlingOptionsTest, FinerThresholdImprovesAccuracy) {
  const Graph g = TestGraph();
  const SimRankMatrix truth = PowerMethodAllPairs(g, 0.6, 55);
  SimRankOptions mc;
  mc.seed = 7;
  Sling coarse(mc);
  coarse.set_prune_threshold(0.05);
  coarse.set_diag_samples(2000);
  ASSERT_TRUE(coarse.Bind(&g).ok());
  Sling fine(mc);
  fine.set_prune_threshold(0.001);
  fine.set_diag_samples(2000);
  ASSERT_TRUE(fine.Bind(&g).ok());
  const auto truth_row = truth.Row(4);
  const double me_coarse = MaxError(coarse.SingleSource(4), truth_row, 4);
  const double me_fine = MaxError(fine.SingleSource(4), truth_row, 4);
  EXPECT_LT(me_fine, me_coarse);
}

TEST(SlingOptionsTest, FinerThresholdGrowsIndex) {
  const Graph g = TestGraph();
  SimRankOptions mc;
  Sling coarse(mc);
  coarse.set_prune_threshold(0.05);
  ASSERT_TRUE(coarse.Bind(&g).ok());
  Sling fine(mc);
  fine.set_prune_threshold(0.001);
  ASSERT_TRUE(fine.Bind(&g).ok());
  EXPECT_GT(fine.index_stats().reverse_entries,
            coarse.index_stats().reverse_entries);
}

TEST(ReadsOptionsTest, MoreSamplesReduceError) {
  const Graph g = PaperExampleGraph();
  const SimRankMatrix truth = PowerMethodAllPairs(g, 0.6, 55);
  const auto truth_row = truth.Row(0);
  double me_small_total = 0.0;
  double me_large_total = 0.0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ReadsOptions small;
    small.r = 50;
    small.seed = seed;
    Reads rs(small);
    ASSERT_TRUE(rs.Bind(&g).ok());
    me_small_total += MaxError(rs.SingleSource(0), truth_row, 0);
    ReadsOptions large;
    large.r = 5000;
    large.seed = seed;
    Reads rl(large);
    ASSERT_TRUE(rl.Bind(&g).ok());
    me_large_total += MaxError(rl.SingleSource(0), truth_row, 0);
  }
  EXPECT_LT(me_large_total, me_small_total);
}

TEST(ReadsOptionsTest, ZeroRQStillWorks) {
  const Graph g = PaperExampleGraph();
  ReadsOptions opt;
  opt.r_q = 0;
  Reads reads(opt);
  ASSERT_TRUE(reads.Bind(&g).ok());
  const auto scores = reads.SingleSource(1);
  EXPECT_DOUBLE_EQ(scores[1], 1.0);
  for (double s : scores) EXPECT_LE(s, 1.0);
}

// Bad options come back from Bind as kInvalidArgument, in-process: no
// estimator aborts, and none is left bound.
TEST(AlgorithmBindTest, ProbeSimRejectsBadOptions) {
  const Graph g = PaperExampleGraph();
  SimRankOptions mc;
  mc.epsilon = -0.1;
  ProbeSim algo(mc);
  EXPECT_EQ(algo.Bind(&g).code(), StatusCode::kInvalidArgument);
}

TEST(AlgorithmBindTest, SlingRejectsBadOptions) {
  const Graph g = PaperExampleGraph();
  SimRankOptions mc;
  mc.delta = 1.5;
  Sling algo(mc);
  EXPECT_EQ(algo.Bind(&g).code(), StatusCode::kInvalidArgument);
}

TEST(AlgorithmBindTest, PairwiseMonteCarloRejectsBadOptions) {
  const Graph g = PaperExampleGraph();
  SimRankOptions mc;
  mc.trials_cap = -1;
  PairwiseMonteCarlo algo(mc);
  EXPECT_EQ(algo.Bind(&g).code(), StatusCode::kInvalidArgument);
}

TEST(AlgorithmBindTest, ReadsRejectsBadOptions) {
  const Graph g = PaperExampleGraph();
  ReadsOptions options;
  options.r = 0;
  Reads algo(options);  // constructing with bad options is not an error
  EXPECT_EQ(algo.Bind(&g).code(), StatusCode::kInvalidArgument);
}

TEST(AlgorithmBindTest, PowerMethodRejectsGraphOverTheNodeCap) {
  const Graph g = GraphBuilder(kPowerMethodMaxNodes + 1).Build();
  PowerMethod algo;
  const Status bound = algo.Bind(&g);
  EXPECT_EQ(bound.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bound.message().find("kPowerMethodMaxNodes"), std::string::npos)
      << bound;
  EXPECT_EQ(algo.matrix().num_nodes(), 0);
}

// One node over the cap: the CHECK fires before any n x n allocation.
TEST(PowerMethodGuardTest, NodeCapViolationDies) {
  const Graph g = GraphBuilder(kPowerMethodMaxNodes + 1).Build();
  EXPECT_DEATH(PowerMethodAllPairs(g, 0.6, 5), "CHECK failed");
}

TEST(WalkFormulaGuardTest, InvalidParametersDie) {
  EXPECT_DEATH(CrashSimLMax(0.0), "CHECK failed");
  EXPECT_DEATH(CrashSimLMax(1.0), "CHECK failed");
  EXPECT_DEATH(CrashSimTrialCount(0.6, 0.0, 0.01, 100), "CHECK failed");
  EXPECT_DEATH(CrashSimTrialCount(0.6, 0.025, 1.5, 100), "CHECK failed");
}

}  // namespace
}  // namespace crashsim
