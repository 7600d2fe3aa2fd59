#include "simrank/sling.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "simrank/power_method.h"

namespace crashsim {
namespace {

SimRankOptions Options(uint64_t seed = 42) {
  SimRankOptions opt;
  opt.c = 0.6;
  opt.epsilon = 0.025;
  opt.seed = seed;
  return opt;
}

TEST(SlingTest, SelfScoreIsOne) {
  const Graph g = PaperExampleGraph();
  Sling algo(Options());
  ASSERT_TRUE(algo.Bind(&g).ok());
  EXPECT_DOUBLE_EQ(algo.SingleSource(3)[3], 1.0);
}

TEST(SlingTest, ScoresInUnitInterval) {
  const Graph g = PaperExampleGraph();
  Sling algo(Options());
  ASSERT_TRUE(algo.Bind(&g).ok());
  for (NodeId u = 0; u < 8; ++u) {
    for (double s : algo.SingleSource(u)) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0 + 1e-9);
    }
  }
}

TEST(SlingTest, IndexIsBuiltOnBind) {
  const Graph g = PaperExampleGraph();
  Sling algo(Options());
  ASSERT_TRUE(algo.Bind(&g).ok());
  EXPECT_GT(algo.index_stats().reverse_entries, 0);
  EXPECT_GE(algo.index_stats().build_seconds, 0.0);
}

TEST(SlingTest, ApproximatesGroundTruthOnExampleGraph) {
  const Graph g = PaperExampleGraph();
  const SimRankMatrix truth = PowerMethodAllPairs(g, 0.6, 55);
  Sling algo(Options());
  algo.set_diag_samples(3000);
  ASSERT_TRUE(algo.Bind(&g).ok());
  for (NodeId u : {0, 3, 6}) {
    const auto scores = algo.SingleSource(u);
    for (NodeId v = 0; v < 8; ++v) {
      if (v == u) continue;
      EXPECT_NEAR(scores[static_cast<size_t>(v)], truth.At(u, v), 0.04)
          << u << "->" << v;
    }
  }
}

TEST(SlingTest, ApproximatesGroundTruthOnRandomGraph) {
  Rng rng(5);
  const Graph g = ErdosRenyi(50, 200, false, &rng);
  const SimRankMatrix truth = PowerMethodAllPairs(g, 0.6, 55);
  Sling algo(Options());
  algo.set_diag_samples(2000);
  ASSERT_TRUE(algo.Bind(&g).ok());
  const auto scores = algo.SingleSource(7);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == 7) continue;
    EXPECT_NEAR(scores[static_cast<size_t>(v)], truth.At(7, v), 0.05)
        << "node " << v;
  }
}

TEST(SlingTest, SymmetryApproximatelyHolds) {
  // s(u,v) from u's query should match s(v,u) from v's query (both estimate
  // the same symmetric quantity through the same index).
  const Graph g = PaperExampleGraph();
  Sling algo(Options());
  algo.set_diag_samples(2000);
  ASSERT_TRUE(algo.Bind(&g).ok());
  const auto from1 = algo.SingleSource(1);
  const auto from4 = algo.SingleSource(4);
  EXPECT_NEAR(from1[4], from4[1], 0.02);
}

TEST(SlingTest, DeterministicGivenSeed) {
  const Graph g = PaperExampleGraph();
  Sling a(Options(11));
  Sling b(Options(11));
  ASSERT_TRUE(a.Bind(&g).ok());
  ASSERT_TRUE(b.Bind(&g).ok());
  EXPECT_EQ(a.SingleSource(2), b.SingleSource(2));
}

TEST(SlingTest, RebuildOnRebindReflectsNewGraph) {
  const Graph g1 = PaperExampleGraph();
  Sling algo(Options());
  ASSERT_TRUE(algo.Bind(&g1).ok());
  const int64_t entries1 = algo.index_stats().reverse_entries;
  const Graph g2 = CycleGraph(3, false);
  ASSERT_TRUE(algo.Bind(&g2).ok());
  EXPECT_NE(algo.index_stats().reverse_entries, entries1);
  EXPECT_EQ(algo.SingleSource(0).size(), 3u);
}

}  // namespace
}  // namespace crashsim
