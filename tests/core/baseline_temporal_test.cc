#include "core/baseline_temporal.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/crashsim.h"
#include "core/crashsim_t.h"
#include "graph/temporal_graph.h"
#include "simrank/power_method.h"
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

// A Bind failure (here the power method's node cap) is the answer's status,
// naming the snapshot, not an abort.
TEST(StaticRecomputeEngineTest, FailedBindAnswersItsStatus) {
  TemporalGraphBuilder b(kPowerMethodMaxNodes + 1, /*undirected=*/false);
  b.AddSnapshot({{0, 1}});
  b.AddSnapshot({{0, 1}, {1, 2}});
  const TemporalGraph tg = b.Build();
  PowerMethod power_method;
  StaticRecomputeEngine engine(&power_method);
  const TemporalAnswer answer =
      engine.Answer(tg, LeafQuery(1, 0.1), /*ctx=*/nullptr);
  EXPECT_EQ(answer.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(answer.status.message().find("snapshot 0"), std::string::npos)
      << answer.status;
  EXPECT_EQ(answer.stats.snapshots_processed, 0);
}

TEST(ReadsTemporalEngineTest, FindsCoLeavesWithIncrementalIndex) {
  const TemporalGraph tg = SplitWorld(5);
  ReadsOptions opt;
  opt.r = 2000;  // tighten READS noise for a stable assertion
  opt.seed = 3;
  Reads reads(opt);
  StaticRecomputeEngine engine(&reads);
  EXPECT_EQ(engine.name(), "READS-T");
  const TemporalAnswer answer = engine.Answer(tg, LeafQuery(4, 0.4));
  EXPECT_EQ(answer.nodes, (std::vector<NodeId>{2, 3, 4, 5}));
  EXPECT_EQ(answer.stats.scores_computed, 9 * 5);
}

// The default Update rebinds: ProbeSim moved along by Update scores
// exactly like one rebound with Bind, query for query.
TEST(AlgorithmUpdateTest, DefaultUpdateScoresLikeFreshBind) {
  const TemporalGraph tg = SplitWorld(3);
  const Graph g0 = tg.Snapshot(0);
  const Graph g1 = tg.Snapshot(1);
  SimRankOptions mc;
  mc.trials_override = 500;
  ProbeSim updated(mc);
  ProbeSim rebound(mc);
  ASSERT_TRUE(updated.Bind(&g0).ok());
  ASSERT_TRUE(rebound.Bind(&g0).ok());
  EXPECT_EQ(updated.SingleSource(1), rebound.SingleSource(1));
  ASSERT_TRUE(updated.Update(&g1, tg.Delta(1)).ok());
  ASSERT_TRUE(rebound.Bind(&g1).ok());
  EXPECT_EQ(updated.SingleSource(1), rebound.SingleSource(1));
  EXPECT_EQ(updated.SingleSource(6), rebound.SingleSource(6));
}

// READS-T is StaticRecomputeEngine over Reads: Bind at the first snapshot,
// then one ApplyDelta per advance, with a full query at every snapshot.
// The hand-written sequence must leave the same answer and the same index
// (and RNG) state, so a follow-up query agrees bit for bit.
TEST(AlgorithmUpdateTest, ReadsEngineMatchesHandWrittenDeltaSequence) {
  const TemporalGraph tg = SplitWorld(3);
  const TemporalQuery q = LeafQuery(2, 0.4);
  ReadsOptions opt;
  opt.r = 500;
  opt.seed = 5;

  Reads engine_reads(opt);
  StaticRecomputeEngine engine(&engine_reads);
  const TemporalAnswer answer = engine.Answer(tg, q);

  std::vector<Graph> snapshots;
  for (int t = 0; t < 3; ++t) snapshots.push_back(tg.Snapshot(t));
  Reads hand(opt);
  CandidateFilter filter(q, tg.num_nodes());
  ASSERT_TRUE(hand.Bind(&snapshots[0]).ok());
  for (int t = 0; t < 3; ++t) {
    if (t > 0) hand.ApplyDelta(tg.Delta(t), &snapshots[t]);
    const std::vector<double> all = hand.SingleSource(q.source);
    std::vector<double> gathered;
    for (NodeId v : filter.candidates()) {
      gathered.push_back(all[static_cast<size_t>(v)]);
    }
    filter.Observe(gathered);
  }

  EXPECT_EQ(answer.nodes, filter.candidates());
  EXPECT_EQ(answer.stats.snapshots_processed, 3);
  // The engine's snapshot died with its cursor: an empty delta points the
  // index at an identical copy without resampling anything.
  engine_reads.ApplyDelta(EdgeDelta{}, &snapshots[2]);
  const std::vector<double> from_engine = engine_reads.SingleSource(q.source);
  const std::vector<double> from_hand = hand.SingleSource(q.source);
  ASSERT_EQ(from_engine.size(), from_hand.size());
  EXPECT_EQ(0, std::memcmp(from_engine.data(), from_hand.data(),
                           from_hand.size() * sizeof(double)));
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
  Reads reads(ro);
  StaticRecomputeEngine reads_t(&reads);

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
  Reads reads(ReadsOptions{});
  StaticRecomputeEngine engine(&reads);
  EXPECT_EQ(engine.Answer(tg, q).stats.snapshots_processed, 3);  // no death
}

using CheckQueryIntervalDeathTest = testing::Test;

TEST(CheckQueryIntervalDeathTest, RejectsOutOfRangeEnd) {
  const TemporalGraph tg = SplitWorld(3);
  TemporalQuery q = LeafQuery(5, 0.5);
  Reads reads(ReadsOptions{});
  StaticRecomputeEngine engine(&reads);
  EXPECT_EQ(engine.Answer(tg, q, nullptr).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_DEATH(engine.Answer(tg, q), "CHECK failed");
}

TEST(CheckQueryIntervalDeathTest, RejectsInvertedInterval) {
  const TemporalGraph tg = SplitWorld(3);
  TemporalQuery q = LeafQuery(1, 0.5);
  q.begin_snapshot = 2;
  Reads reads(ReadsOptions{});
  StaticRecomputeEngine engine(&reads);
  EXPECT_EQ(engine.Answer(tg, q, nullptr).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_DEATH(engine.Answer(tg, q), "CHECK failed");
}

}  // namespace
}  // namespace crashsim
