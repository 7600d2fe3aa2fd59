#include "simrank/monte_carlo.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "simrank/power_method.h"

namespace crashsim {
namespace {

SimRankOptions Options(int64_t trials, uint64_t seed = 42) {
  SimRankOptions opt;
  opt.c = 0.6;
  opt.trials_override = trials;
  opt.seed = seed;
  return opt;
}

TEST(PairwiseMonteCarloTest, SelfScoreIsOne) {
  const Graph g = PaperExampleGraph();
  PairwiseMonteCarlo mc(Options(100));
  ASSERT_TRUE(mc.Bind(&g).ok());
  EXPECT_DOUBLE_EQ(mc.SingleSource(2)[2], 1.0);
}

TEST(PairwiseMonteCarloTest, UnbiasedOnExampleGraph) {
  const Graph g = PaperExampleGraph();
  const SimRankMatrix truth = PowerMethodAllPairs(g, 0.6, 55);
  PairwiseMonteCarlo mc(Options(30000));
  ASSERT_TRUE(mc.Bind(&g).ok());
  const auto scores = mc.SingleSource(0);
  for (NodeId v = 1; v < 8; ++v) {
    EXPECT_NEAR(scores[static_cast<size_t>(v)], truth.At(0, v), 0.02)
        << "node " << static_cast<int>(v);
  }
}

TEST(PairwiseMonteCarloTest, StarLeavesScoreExactlyC) {
  // The simplest closed form: leaf-leaf SimRank = c on an undirected star.
  const Graph g = StarGraph(6, /*undirected=*/true);
  PairwiseMonteCarlo mc(Options(30000));
  ASSERT_TRUE(mc.Bind(&g).ok());
  const auto scores = mc.SingleSource(1);
  EXPECT_NEAR(scores[2], 0.6, 0.02);
  EXPECT_NEAR(scores[0], 0.0, 1e-12);  // hub never meets a leaf in step
}

TEST(PairwiseMonteCarloTest, PartialScoresSubsetOnly) {
  const Graph g = PaperExampleGraph();
  PairwiseMonteCarlo mc(Options(500));
  ASSERT_TRUE(mc.Bind(&g).ok());
  const std::vector<NodeId> cands{0, 4};
  const auto partial = mc.Partial(0, cands);
  ASSERT_EQ(partial.size(), 2u);
  EXPECT_DOUBLE_EQ(partial[0], 1.0);  // source included
  EXPECT_GE(partial[1], 0.0);
}

TEST(PairwiseMonteCarloTest, DeterministicGivenSeed) {
  const Graph g = PaperExampleGraph();
  PairwiseMonteCarlo a(Options(300, 9));
  PairwiseMonteCarlo b(Options(300, 9));
  ASSERT_TRUE(a.Bind(&g).ok());
  ASSERT_TRUE(b.Bind(&g).ok());
  EXPECT_EQ(a.SingleSource(3), b.SingleSource(3));
}

TEST(PairwiseMonteCarloTest, ScoresAreTrialFractions) {
  const Graph g = PaperExampleGraph();
  PairwiseMonteCarlo mc(Options(40));
  ASSERT_TRUE(mc.Bind(&g).ok());
  for (double s : mc.SingleSource(1)) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    EXPECT_NEAR(s * 40.0, std::round(s * 40.0), 1e-9);
  }
}

}  // namespace
}  // namespace crashsim
