#include "core/baseline_temporal.h"

#include <gtest/gtest.h>

#include "core/crashsim.h"
#include "core/crashsim_t.h"
#include "graph/temporal_graph.h"
#include "simrank/probesim.h"
#include "simrank/reads.h"

namespace crashsim {
namespace {

// Same split-world fixture as the CrashSim-T tests: static star 0..5 with
// hub 0, churning far component 6..9.
TemporalGraph SplitWorld(int snapshots) {
  TemporalGraphBuilder b(10, /*undirected=*/true);
  std::vector<Edge> star;
  for (NodeId v = 1; v <= 5; ++v) star.push_back({0, v});
  std::vector<Edge> base = star;
  base.push_back({6, 7});
  base.push_back({8, 9});
  b.AddSnapshot(base);
  for (int t = 1; t < snapshots; ++t) {
    std::vector<Edge> edges = star;
    const NodeId a = static_cast<NodeId>(6 + (t % 4));
    const NodeId c = static_cast<NodeId>(6 + ((t + 1) % 4));
    if (a != c) edges.push_back({a, c});
    b.AddSnapshot(edges);
  }
  return b.Build();
}

TemporalQuery LeafQuery(int end_snapshot, double theta) {
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 1;
  q.begin_snapshot = 0;
  q.end_snapshot = end_snapshot;
  q.theta = theta;
  return q;
}

TEST(StaticRecomputeEngineTest, ProbeSimFindsCoLeaves) {
  const TemporalGraph tg = SplitWorld(4);
  SimRankOptions mc;
  mc.trials_override = 4000;
  ProbeSim probesim(mc);
  StaticRecomputeEngine engine(&probesim);
  EXPECT_EQ(engine.name(), "ProbeSim-T");
  // ProbeSim is unbiased: leaf-leaf scores sit near the true 0.6.
  const TemporalAnswer answer = engine.Answer(tg, LeafQuery(3, 0.4));
  EXPECT_EQ(answer.nodes, (std::vector<NodeId>{2, 3, 4, 5}));
  EXPECT_EQ(answer.stats.snapshots_processed, 4);
  // Full single-source recomputation every snapshot: 9 scores x 4.
  EXPECT_EQ(answer.stats.scores_computed, 9 * 4);
}

TEST(StaticRecomputeEngineTest, RespectsQuerySubInterval) {
  const TemporalGraph tg = SplitWorld(6);
  SimRankOptions mc;
  mc.trials_override = 1000;
  ProbeSim probesim(mc);
  StaticRecomputeEngine engine(&probesim);
  TemporalQuery q = LeafQuery(4, 0.4);
  q.begin_snapshot = 2;
  const TemporalAnswer answer = engine.Answer(tg, q);
  EXPECT_EQ(answer.stats.snapshots_processed, 3);
}

TEST(ReadsTemporalEngineTest, FindsCoLeavesWithIncrementalIndex) {
  const TemporalGraph tg = SplitWorld(5);
  ReadsOptions opt;
  opt.r = 2000;  // tighten READS noise for a stable assertion
  opt.seed = 3;
  ReadsTemporalEngine engine(opt);
  EXPECT_EQ(engine.name(), "READS-T");
  const TemporalAnswer answer = engine.Answer(tg, LeafQuery(4, 0.4));
  EXPECT_EQ(answer.nodes, (std::vector<NodeId>{2, 3, 4, 5}));
  EXPECT_EQ(answer.stats.scores_computed, 9 * 5);
}

TEST(EnginesAgreeTest, AllEnginesReturnSameSetOnRobustScenario) {
  const TemporalGraph tg = SplitWorld(5);
  const TemporalQuery q = LeafQuery(4, 0.4);

  SimRankOptions mc;
  mc.trials_override = 5000;
  ProbeSim probesim(mc);
  StaticRecomputeEngine probesim_t(&probesim);

  ReadsOptions ro;
  ro.r = 2000;
  ReadsTemporalEngine reads_t(ro);

  CrashSimTOptions ct;
  ct.crashsim.mc.trials_override = 5000;
  ct.crashsim.mode = RevReachMode::kCorrected;
  ct.crashsim.diag_samples = 1500;
  CrashSimT crashsim_t(ct);

  const auto a = probesim_t.Answer(tg, q).nodes;
  const auto b = reads_t.Answer(tg, q).nodes;
  const auto c = crashsim_t.Answer(tg, q).nodes;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

// The unbounded Answer checks the interval and CHECK-fails on a bad one;
// the context form reports it as a status instead.
TEST(CheckQueryIntervalTest, AcceptsValidInterval) {
  const TemporalGraph tg = SplitWorld(3);
  TemporalQuery q = LeafQuery(2, 0.5);
  EXPECT_TRUE(ValidateQueryInterval(tg, q).ok());
  ReadsTemporalEngine engine(ReadsOptions{});
  EXPECT_EQ(engine.Answer(tg, q).stats.snapshots_processed, 3);  // no death
}

using CheckQueryIntervalDeathTest = testing::Test;

TEST(CheckQueryIntervalDeathTest, RejectsOutOfRangeEnd) {
  const TemporalGraph tg = SplitWorld(3);
  TemporalQuery q = LeafQuery(5, 0.5);
  ReadsTemporalEngine engine(ReadsOptions{});
  EXPECT_EQ(engine.Answer(tg, q, nullptr).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_DEATH(engine.Answer(tg, q), "CHECK failed");
}

TEST(CheckQueryIntervalDeathTest, RejectsInvertedInterval) {
  const TemporalGraph tg = SplitWorld(3);
  TemporalQuery q = LeafQuery(1, 0.5);
  q.begin_snapshot = 2;
  ReadsTemporalEngine engine(ReadsOptions{});
  EXPECT_EQ(engine.Answer(tg, q, nullptr).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_DEATH(engine.Answer(tg, q), "CHECK failed");
}

}  // namespace
}  // namespace crashsim
