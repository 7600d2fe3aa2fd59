#include "core/crashsim.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "simrank/power_method.h"
#include "simrank/walk.h"

namespace crashsim {
namespace {

CrashSimOptions FastOptions(int64_t trials, uint64_t seed = 42) {
  CrashSimOptions opt;
  opt.mc.c = 0.6;
  opt.mc.trials_override = trials;
  opt.mc.seed = seed;
  return opt;
}

TEST(CrashSimTest, SelfScoreIsOne) {
  const Graph g = PaperExampleGraph();
  CrashSim algo(FastOptions(100));
  algo.Bind(&g);
  EXPECT_DOUBLE_EQ(algo.SingleSource(0)[0], 1.0);
}

TEST(CrashSimTest, ScoresNonNegative) {
  const Graph g = PaperExampleGraph();
  CrashSim algo(FastOptions(1000));
  algo.Bind(&g);
  for (NodeId u = 0; u < 8; ++u) {
    for (double s : algo.SingleSource(u)) EXPECT_GE(s, 0.0);
  }
}

TEST(CrashSimTest, DeterministicGivenSeed) {
  const Graph g = PaperExampleGraph();
  CrashSim a(FastOptions(500, 3));
  CrashSim b(FastOptions(500, 3));
  a.Bind(&g);
  b.Bind(&g);
  EXPECT_EQ(a.SingleSource(1), b.SingleSource(1));
}

TEST(CrashSimTest, LMaxDefaultAndOverride) {
  CrashSimOptions opt;
  opt.mc.c = 0.6;
  CrashSim algo(opt);
  EXPECT_EQ(algo.LMax(), 35);  // paper value at c = 0.6
  opt.lmax_override = 10;
  CrashSim overridden(opt);
  EXPECT_EQ(overridden.LMax(), 10);
}

TEST(CrashSimTest, TrialsForHonoursOverrideCapAndFormula) {
  CrashSimOptions opt;
  opt.mc.trials_override = 77;
  EXPECT_EQ(CrashSim(opt).TrialsFor(500), 77);

  CrashSimOptions capped;
  capped.mc.trials_cap = 100;
  EXPECT_EQ(CrashSim(capped).TrialsFor(100000), 100);

  CrashSimOptions exact;
  exact.mc.trials_cap = 0;
  EXPECT_EQ(CrashSim(exact).TrialsFor(500),
            CrashSimTrialCount(exact.mc.c, exact.mc.epsilon, exact.mc.delta,
                               500));
}

TEST(CrashSimTest, PartialMatchesSingleSourceSubset) {
  // Partial evaluation consumes the RNG differently, so compare estimates
  // statistically: both must approximate the same truth.
  const Graph g = PaperExampleGraph();
  const SimRankMatrix truth = PowerMethodAllPairs(g, 0.6, 55);
  CrashSim algo(FastOptions(20000));
  algo.Bind(&g);
  const std::vector<NodeId> cands{2, 4, 6};
  const auto partial = algo.Partial(0, cands);
  ASSERT_EQ(partial.size(), 3u);
  for (size_t i = 0; i < cands.size(); ++i) {
    EXPECT_NEAR(partial[i], truth.At(0, cands[i]), 0.05);
  }
}

TEST(CrashSimTest, PartialWithSourceInCandidates) {
  const Graph g = PaperExampleGraph();
  CrashSim algo(FastOptions(100));
  algo.Bind(&g);
  const std::vector<NodeId> cands{0, 3};
  const auto partial = algo.Partial(0, cands);
  EXPECT_DOUBLE_EQ(partial[0], 1.0);
}

TEST(CrashSimTest, PartialEmptyCandidates) {
  const Graph g = PaperExampleGraph();
  CrashSim algo(FastOptions(100));
  algo.Bind(&g);
  EXPECT_TRUE(algo.Partial(0, {}).empty());
}

TEST(CrashSimTest, PartialWithTreeMatchesPartial) {
  const Graph g = PaperExampleGraph();
  CrashSim a(FastOptions(400, 5));
  CrashSim b(FastOptions(400, 5));
  a.Bind(&g);
  b.Bind(&g);
  const std::vector<NodeId> cands{1, 2, 3};
  const auto tree = b.BuildTree(0);
  EXPECT_EQ(a.Partial(0, cands),
            b.PartialWithTree(tree, cands, nullptr).scores);
}

TEST(CrashSimTest, PaperModeApproximatesGroundTruthOnExample) {
  // The published recurrence carries a modest systematic bias (DESIGN.md §3)
  // but must land near the truth on the paper's own example graph.
  const Graph g = PaperExampleGraph();
  const SimRankMatrix truth = PowerMethodAllPairs(g, 0.6, 55);
  CrashSim algo(FastOptions(20000));
  algo.Bind(&g);
  const auto scores = algo.SingleSource(0);
  for (NodeId v = 1; v < 8; ++v) {
    EXPECT_NEAR(scores[static_cast<size_t>(v)], truth.At(0, v), 0.12)
        << "node " << static_cast<int>(v);
  }
}

TEST(CrashSimTest, CorrectedModeApproximatesGroundTruthTightly) {
  const Graph g = PaperExampleGraph();
  const SimRankMatrix truth = PowerMethodAllPairs(g, 0.6, 55);
  CrashSimOptions opt = FastOptions(20000);
  opt.mode = RevReachMode::kCorrected;
  opt.diag_samples = 3000;
  CrashSim algo(opt);
  algo.Bind(&g);
  for (NodeId u : {0, 4}) {
    const auto scores = algo.SingleSource(u);
    for (NodeId v = 0; v < 8; ++v) {
      if (v == u) continue;
      EXPECT_NEAR(scores[static_cast<size_t>(v)], truth.At(u, v), 0.05)
          << u << "->" << v;
    }
  }
}

TEST(CrashSimTest, CorrectedModeOnRandomGraph) {
  Rng rng(31);
  const Graph g = ErdosRenyi(50, 200, false, &rng);
  const SimRankMatrix truth = PowerMethodAllPairs(g, 0.6, 55);
  CrashSimOptions opt = FastOptions(12000);
  opt.mode = RevReachMode::kCorrected;
  opt.diag_samples = 2000;
  CrashSim algo(opt);
  algo.Bind(&g);
  const auto scores = algo.SingleSource(9);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == 9) continue;
    EXPECT_NEAR(scores[static_cast<size_t>(v)], truth.At(9, v), 0.06)
        << "node " << v;
  }
}

TEST(CrashSimTest, DeepestTreeLevelContributesToScores) {
  // Depth off-by-one regression: the tree stores levels 0..l_max, and a
  // candidate walk of l_max + 1 nodes (l_max steps) is needed for level
  // l_max to ever be scored. Two disjoint chains of length l_max meeting at
  // a common tail node z make level l_max the *only* possible meeting
  // level, so a non-zero score proves the deepest level contributes (the
  // pre-fix walks, capped at l_max nodes, scored exactly 0 here).
  const int l_max = 5;
  const NodeId u = 0, v = 5, z = 10;
  const Graph g = BuildGraph(11, {{1, 0},
                                  {2, 1},
                                  {3, 2},
                                  {4, 3},
                                  {10, 4},   // source chain: 0<-1<-2<-3<-4<-z
                                  {6, 5},
                                  {7, 6},
                                  {8, 7},
                                  {9, 8},
                                  {10, 9}});  // candidate chain: 5<-...<-z
  CrashSimOptions opt;
  opt.mc.c = 0.25;
  opt.mc.trials_override = 5000;
  opt.mc.seed = 12;
  opt.lmax_override = l_max;
  CrashSim algo(opt);
  algo.Bind(&g);
  const auto tree = algo.BuildTree(u);
  ASSERT_EQ(tree.max_level(), l_max);
  ASSERT_GT(tree.Probability(l_max, z), 0.0);      // z sits at the deepest level
  for (int level = 0; level < l_max; ++level) {    // ... and nowhere shallower
    for (NodeId w : {NodeId{6}, NodeId{7}, NodeId{8}, NodeId{9}, z}) {
      ASSERT_EQ(tree.Probability(level, w), 0.0);
    }
  }
  const auto scores = algo.Partial(u, std::vector<NodeId>{v});
  EXPECT_GT(scores[0], 0.0);
  // The ctx-aware path shares the fix.
  const PartialResult anytime = algo.Partial(u, std::vector<NodeId>{v}, nullptr);
  ASSERT_TRUE(anytime.complete());
  EXPECT_GT(anytime.scores[0], 0.0);
}

TEST(CrashSimTest, SourceWithEmptyTreeGivesZeros) {
  const Graph g = BuildGraph(3, {{0, 1}, {0, 2}});
  CrashSim algo(FastOptions(200));
  algo.Bind(&g);
  const auto scores = algo.SingleSource(0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);
  EXPECT_DOUBLE_EQ(scores[2], 0.0);
}

TEST(CrashSimTest, StarLeavesScoreNearCInCorrectedMode) {
  // Star leaves have exact SimRank c. This is exactly the degree-skew
  // configuration where the published recurrence's |I(v)| denominator is
  // furthest from the true walk marginal (DESIGN.md §3), so corrected mode
  // must nail it while paper mode visibly undershoots.
  const Graph g = StarGraph(8, /*undirected=*/true);
  CrashSimOptions opt = FastOptions(20000);
  opt.mode = RevReachMode::kCorrected;
  opt.diag_samples = 2000;
  CrashSim corrected(opt);
  corrected.Bind(&g);
  const auto scores = corrected.SingleSource(1);
  for (NodeId v = 2; v < 8; ++v) {
    EXPECT_NEAR(scores[static_cast<size_t>(v)], 0.6, 0.03)
        << "leaf " << static_cast<int>(v);
  }

  CrashSim paper(FastOptions(20000));
  paper.Bind(&g);
  const auto paper_scores = paper.SingleSource(1);
  EXPECT_LT(paper_scores[2], 0.4) << "paper-mode bias disappeared?";
}

}  // namespace
}  // namespace crashsim
