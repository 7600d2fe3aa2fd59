#include "simrank/probesim.h"

#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "simrank/power_method.h"
#include "simrank/walk.h"

namespace crashsim {
namespace {

SimRankOptions FastOptions(int64_t trials, uint64_t seed = 42) {
  SimRankOptions opt;
  opt.c = 0.6;
  opt.trials_override = trials;
  opt.seed = seed;
  return opt;
}

TEST(ProbeSimTest, SelfScoreIsOne) {
  const Graph g = PaperExampleGraph();
  ProbeSim algo(FastOptions(100));
  ASSERT_TRUE(algo.Bind(&g).ok());
  const auto scores = algo.SingleSource(0);
  EXPECT_DOUBLE_EQ(scores[0], 1.0);
}

TEST(ProbeSimTest, ScoresInUnitInterval) {
  const Graph g = PaperExampleGraph();
  ProbeSim algo(FastOptions(500));
  ASSERT_TRUE(algo.Bind(&g).ok());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (double s : algo.SingleSource(u)) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(ProbeSimTest, DeterministicGivenSeed) {
  const Graph g = PaperExampleGraph();
  ProbeSim a(FastOptions(200, 7));
  ProbeSim b(FastOptions(200, 7));
  ASSERT_TRUE(a.Bind(&g).ok());
  ASSERT_TRUE(b.Bind(&g).ok());
  EXPECT_EQ(a.SingleSource(2), b.SingleSource(2));
}

TEST(ProbeSimTest, ApproximatesGroundTruthOnExampleGraph) {
  const Graph g = PaperExampleGraph();
  const SimRankMatrix truth = PowerMethodAllPairs(g, 0.6, 55);
  ProbeSim algo(FastOptions(20000));
  ASSERT_TRUE(algo.Bind(&g).ok());
  const auto scores = algo.SingleSource(0);
  for (NodeId v = 1; v < 8; ++v) {
    EXPECT_NEAR(scores[v], truth.At(0, v), 0.03) << "node " << v;
  }
}

TEST(ProbeSimTest, ApproximatesGroundTruthOnRandomGraph) {
  Rng rng(3);
  const Graph g = ErdosRenyi(40, 160, false, &rng);
  const SimRankMatrix truth = PowerMethodAllPairs(g, 0.6, 55);
  ProbeSim algo(FastOptions(15000));
  ASSERT_TRUE(algo.Bind(&g).ok());
  const auto scores = algo.SingleSource(5);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == 5) continue;
    EXPECT_NEAR(scores[v], truth.At(5, v), 0.04) << "node " << v;
  }
}

TEST(ProbeSimTest, SourceWithNoInNeighborsScoresZero) {
  const Graph g = BuildGraph(3, {{0, 1}, {0, 2}});
  ProbeSim algo(FastOptions(500));
  ASSERT_TRUE(algo.Bind(&g).ok());
  const auto scores = algo.SingleSource(0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);
  EXPECT_DOUBLE_EQ(scores[2], 0.0);
}

TEST(ProbeSimTest, PartialDefaultGathersFromSingleSource) {
  const Graph g = PaperExampleGraph();
  ProbeSim algo(FastOptions(300, 9));
  ASSERT_TRUE(algo.Bind(&g).ok());
  ProbeSim algo2(FastOptions(300, 9));
  ASSERT_TRUE(algo2.Bind(&g).ok());
  const auto all = algo.SingleSource(1);
  const std::vector<NodeId> cands{2, 5, 7};
  const auto partial = algo2.Partial(1, cands);
  ASSERT_EQ(partial.size(), 3u);
  for (size_t i = 0; i < cands.size(); ++i) {
    EXPECT_DOUBLE_EQ(partial[i], all[static_cast<size_t>(cands[i])]);
  }
}

TEST(ProbeSimTest, TrialsForHonoursOverrideAndCap) {
  SimRankOptions opt;
  opt.trials_override = 123;
  ProbeSim a(opt);
  EXPECT_EQ(a.TrialsFor(1000), 123);

  SimRankOptions capped;
  capped.trials_override = 0;
  capped.trials_cap = 50;
  ProbeSim b(capped);
  EXPECT_EQ(b.TrialsFor(1000), 50);

  SimRankOptions uncapped;
  uncapped.trials_cap = 0;
  ProbeSim c(uncapped);
  EXPECT_EQ(c.TrialsFor(1000),
            ProbeSimTrialCount(uncapped.c, uncapped.epsilon, uncapped.delta,
                               1000));
}

TEST(ProbeSimTest, RebindResetsToNewGraph) {
  const Graph g1 = PaperExampleGraph();
  const Graph g2 = CycleGraph(4, false);
  ProbeSim algo(FastOptions(100));
  ASSERT_TRUE(algo.Bind(&g1).ok());
  EXPECT_EQ(algo.SingleSource(0).size(), 8u);
  ASSERT_TRUE(algo.Bind(&g2).ok());
  EXPECT_EQ(algo.SingleSource(0).size(), 4u);
}

// ---- Context-aware (anytime) entry point ----

TEST(ProbeSimContextTest, CompleteRunMatchesLegacyEntryPoint) {
  const Graph g = PaperExampleGraph();
  ProbeSim legacy(FastOptions(200));
  ASSERT_TRUE(legacy.Bind(&g).ok());
  const std::vector<double> expected = legacy.SingleSource(0);

  ProbeSim algo(FastOptions(200));
  ASSERT_TRUE(algo.Bind(&g).ok());
  QueryContext ctx;
  const PartialResult result = algo.SingleSource(0, &ctx);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.trials_done, 200);
  EXPECT_EQ(result.scores, expected);
  EXPECT_DOUBLE_EQ(result.epsilon_achieved, FastOptions(200).epsilon);
}

TEST(ProbeSimContextTest, ExpiredDeadlineYieldsNonEmptyPartialPrefix) {
  const Graph g = PaperExampleGraph();
  ProbeSim algo(FastOptions(100000));
  ASSERT_TRUE(algo.Bind(&g).ok());
  QueryContext ctx(std::chrono::milliseconds(0));  // already expired
  const PartialResult result = algo.SingleSource(0, &ctx);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  // The first trial block always completes before the first checkpoint.
  EXPECT_GE(result.trials_done, 1);
  EXPECT_LT(result.trials_done, 100000);
  EXPECT_DOUBLE_EQ(result.scores[0], 1.0);
  EXPECT_GT(result.epsilon_achieved, FastOptions(1).epsilon);
}

TEST(ProbeSimContextTest, PartialPrefixIsExactResultOfTrialsDone) {
  // The anytime contract: a cancelled run's scores are bit-identical to a
  // fresh complete run of trials_done trials with the same seed.
  const Graph g = PaperExampleGraph();
  ProbeSim algo(FastOptions(50000));
  ASSERT_TRUE(algo.Bind(&g).ok());
  QueryContext ctx(std::chrono::milliseconds(0));
  const PartialResult partial = algo.SingleSource(0, &ctx);
  ASSERT_GE(partial.trials_done, 1);

  ProbeSim replay(FastOptions(partial.trials_done));
  ASSERT_TRUE(replay.Bind(&g).ok());
  QueryContext fresh;
  const PartialResult full = replay.SingleSource(0, &fresh);
  ASSERT_TRUE(full.status.ok());
  EXPECT_EQ(partial.scores, full.scores);
}

TEST(ProbeSimContextTest, CancellationStopsBetweenBlocks) {
  const Graph g = PaperExampleGraph();
  ProbeSim algo(FastOptions(100000));
  ASSERT_TRUE(algo.Bind(&g).ok());
  QueryContext ctx;
  ctx.Cancel();
  const PartialResult result = algo.SingleSource(0, &ctx);
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_GE(result.trials_done, 1);
  EXPECT_LT(result.trials_done, 100000);
}

TEST(ProbeSimContextTest, TrialFractionShrinksTheBudget) {
  const Graph g = PaperExampleGraph();
  ProbeSim algo(FastOptions(1000));
  ASSERT_TRUE(algo.Bind(&g).ok());
  QueryContext ctx;
  ctx.set_trial_fraction(0.25);
  const PartialResult result = algo.SingleSource(0, &ctx);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.trials_target, 250);
  EXPECT_EQ(result.trials_done, 250);
  // The reported bound loosens by sqrt(full / done) = 2.
  EXPECT_NEAR(result.epsilon_achieved, FastOptions(1000).epsilon * 2.0, 1e-12);
}

TEST(ProbeSimContextTest, InvalidSourceIsInvalidArgument) {
  const Graph g = PaperExampleGraph();
  ProbeSim algo(FastOptions(10));
  ASSERT_TRUE(algo.Bind(&g).ok());
  QueryContext ctx;
  const PartialResult result = algo.SingleSource(999, &ctx);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(result.scores.empty());
}

}  // namespace
}  // namespace crashsim
