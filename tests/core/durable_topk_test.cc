#include "core/durable_topk.h"

#include <gtest/gtest.h>

#include "eval/ground_truth.h"
#include "graph/temporal_graph.h"

namespace crashsim {
namespace {

// Static star repeated over snapshots: durable leaf-leaf score is exactly c,
// everything else 0.
TemporalGraph StaticStar(int snapshots) {
  TemporalGraphBuilder b(7, /*undirected=*/true);
  std::vector<Edge> star;
  for (NodeId v = 1; v <= 6; ++v) star.push_back({0, v});
  for (int t = 0; t < snapshots; ++t) b.AddSnapshot(star);
  return b.Build();
}

// A star that loses the spoke to node 6 halfway: node 6's durable score
// collapses to 0 even though it is similar in early snapshots.
TemporalGraph DecayingStar(int snapshots) {
  TemporalGraphBuilder b(7, /*undirected=*/true);
  for (int t = 0; t < snapshots; ++t) {
    std::vector<Edge> star;
    for (NodeId v = 1; v <= (t < snapshots / 2 ? 6 : 5); ++v) {
      star.push_back({0, v});
    }
    b.AddSnapshot(star);
  }
  return b.Build();
}

CrashSimOptions Options(int64_t trials = 5000) {
  CrashSimOptions opt;
  opt.mc.c = 0.6;
  opt.mc.trials_override = trials;
  opt.mc.seed = 42;
  opt.mode = RevReachMode::kCorrected;
  opt.diag_samples = 500;
  return opt;
}

TEST(DurableTopKTest, RanksCoLeavesFirst) {
  const TemporalGraph tg = StaticStar(4);
  DurableTopKQuery q;
  q.source = 1;
  q.begin_snapshot = 0;
  q.end_snapshot = 3;
  q.k = 5;
  CrashSimDurableTopK engine(Options());
  const DurableTopKAnswer answer = engine.Answer(tg, q);
  ASSERT_EQ(answer.result.size(), 5u);
  for (const auto& [score, v] : answer.result) {
    EXPECT_NE(v, 0);  // the hub is not durably similar
    EXPECT_NEAR(score, 0.6, 0.05);
  }
  EXPECT_EQ(answer.stats.snapshots_processed, 4);
}

TEST(DurableTopKTest, DurableScoreIsTheMinimum) {
  const TemporalGraph tg = DecayingStar(6);
  DurableTopKQuery q;
  q.source = 1;
  q.begin_snapshot = 0;
  q.end_snapshot = 5;
  q.k = 6;
  CrashSimDurableTopK engine(Options());
  const DurableTopKAnswer answer = engine.Answer(tg, q);
  double score6 = -1.0;
  for (const auto& [score, v] : answer.result) {
    if (v == 6) score6 = score;
  }
  // Node 6 lost its spoke: its min over the interval is ~0.
  ASSERT_GE(score6, 0.0);
  EXPECT_LT(score6, 0.05);
  // Stable co-leaves keep the full durable score.
  EXPECT_NEAR(answer.result[0].first, 0.6, 0.05);
}

TEST(DurableTopKTest, FloorPrunesAndShrinksWork) {
  const TemporalGraph tg = DecayingStar(6);
  DurableTopKQuery q;
  q.source = 1;
  q.begin_snapshot = 0;
  q.end_snapshot = 5;
  q.k = 6;
  q.floor = 0.1;
  CrashSimDurableTopK engine(Options());
  const DurableTopKAnswer answer = engine.Answer(tg, q);
  // Hub and node 6 fall below the floor; only the 4 stable co-leaves remain.
  EXPECT_EQ(answer.result.size(), 4u);
  DurableTopKQuery no_floor = q;
  no_floor.floor = 0.0;
  CrashSimDurableTopK engine2(Options());
  const DurableTopKAnswer unpruned = engine2.Answer(tg, no_floor);
  EXPECT_LT(answer.stats.scores_computed, unpruned.stats.scores_computed);
}

TEST(DurableTopKTest, SubsumesThresholdQuerySemantics) {
  // With floor = theta, the returned set matches the threshold query answer
  // of the exact engine on a static temporal graph.
  const TemporalGraph tg = StaticStar(3);
  DurableTopKQuery q;
  q.source = 1;
  q.begin_snapshot = 0;
  q.end_snapshot = 2;
  q.k = 10;
  q.floor = 0.5;
  CrashSimDurableTopK engine(Options());
  const DurableTopKAnswer answer = engine.Answer(tg, q);

  TemporalQuery tq;
  tq.kind = TemporalQueryKind::kThreshold;
  tq.source = 1;
  tq.begin_snapshot = 0;
  tq.end_snapshot = 2;
  tq.theta = 0.5;
  ExactTemporalEngine exact(0.6, 55);
  const TemporalAnswer truth = exact.Answer(tg, tq);

  std::vector<NodeId> got;
  for (const auto& [score, v] : answer.result) got.push_back(v);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, truth.nodes);
}

TEST(DurableTopKTest, SingleSnapshotInterval) {
  const TemporalGraph tg = StaticStar(2);
  DurableTopKQuery q;
  q.source = 1;
  q.begin_snapshot = 1;
  q.end_snapshot = 1;
  q.k = 3;
  CrashSimDurableTopK engine(Options());
  const DurableTopKAnswer answer = engine.Answer(tg, q);
  EXPECT_EQ(answer.result.size(), 3u);
  EXPECT_EQ(answer.stats.snapshots_processed, 1);
}

TEST(DurableTopKTest, ValidateRejectsBadIntervalKAndFloor) {
  const TemporalGraph tg = StaticStar(3);
  DurableTopKQuery q;
  q.source = 1;
  q.begin_snapshot = 0;
  q.end_snapshot = 2;
  EXPECT_TRUE(ValidateDurableTopKQuery(tg, q).ok());
  const auto rejected = [&](DurableTopKQuery bad) {
    return ValidateDurableTopKQuery(tg, bad).code() ==
           StatusCode::kInvalidArgument;
  };
  DurableTopKQuery bad = q;
  bad.begin_snapshot = 2;
  bad.end_snapshot = 1;
  EXPECT_TRUE(rejected(bad));
  bad = q;
  bad.end_snapshot = 9;
  EXPECT_TRUE(rejected(bad));
  bad = q;
  bad.begin_snapshot = -1;
  EXPECT_TRUE(rejected(bad));
  bad = q;
  bad.source = 7;
  EXPECT_TRUE(rejected(bad));
  bad = q;
  bad.k = 0;
  EXPECT_TRUE(rejected(bad));
  bad = q;
  bad.floor = -1.0;
  EXPECT_TRUE(rejected(bad));
}

}  // namespace
}  // namespace crashsim
