#include "eval/ground_truth.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/temporal_graph.h"

namespace crashsim {
namespace {

TEST(GroundTruthTest, BindComputesMatrix) {
  const Graph g = PaperExampleGraph();
  GroundTruth gt(0.6, 55);
  gt.Bind(&g);
  EXPECT_EQ(gt.matrix().num_nodes(), 8);
  const auto row = gt.matrix().Row(0);
  EXPECT_DOUBLE_EQ(row[0], 1.0);
  for (double s : row) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(GroundTruthTest, RowMatchesMatrix) {
  const Graph g = PaperExampleGraph();
  GroundTruth gt(0.25, 30);
  gt.Bind(&g);
  const auto row = gt.matrix().Row(3);
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_DOUBLE_EQ(row[static_cast<size_t>(v)], gt.matrix().At(3, v));
  }
}

TEST(ExactTemporalEngineTest, ThresholdOnStaticStar) {
  // A static star repeated over snapshots: leaf-leaf SimRank is exactly c;
  // the exact engine must return precisely the co-leaves.
  TemporalGraphBuilder b(6, /*undirected=*/true);
  std::vector<Edge> star;
  for (NodeId v = 1; v <= 5; ++v) star.push_back({0, v});
  for (int t = 0; t < 4; ++t) b.AddSnapshot(star);
  const TemporalGraph tg = b.Build();

  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 1;
  q.begin_snapshot = 0;
  q.end_snapshot = 3;
  q.theta = 0.5;  // below c = 0.6

  ExactTemporalEngine engine(0.6, 55);
  const TemporalAnswer answer = engine.Answer(tg, q);
  EXPECT_EQ(answer.nodes, (std::vector<NodeId>{2, 3, 4, 5}));
  EXPECT_EQ(answer.stats.snapshots_processed, 4);
}

TEST(ExactTemporalEngineTest, TrendOnStaticGraphKeepsEveryone) {
  // Scores are constant across snapshots; non-strict increasing keeps all.
  TemporalGraphBuilder b(5, /*undirected=*/true);
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  for (int t = 0; t < 3; ++t) b.AddSnapshot(edges);
  const TemporalGraph tg = b.Build();

  TemporalQuery q;
  q.kind = TemporalQueryKind::kTrendIncreasing;
  q.source = 0;
  q.begin_snapshot = 0;
  q.end_snapshot = 2;

  ExactTemporalEngine engine(0.6, 40);
  const TemporalAnswer answer = engine.Answer(tg, q);
  EXPECT_EQ(answer.nodes.size(), 4u);
}

}  // namespace
}  // namespace crashsim
