#include "simrank/reads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/snapshot_diff.h"
#include "simrank/power_method.h"

namespace crashsim {
namespace {

ReadsOptions Options(int r = 100, uint64_t seed = 42) {
  ReadsOptions opt;
  opt.r = r;
  opt.r_q = 10;
  opt.t = 10;
  opt.seed = seed;
  return opt;
}

TEST(ReadsTest, SelfScoreIsOne) {
  const Graph g = PaperExampleGraph();
  Reads algo(Options());
  ASSERT_TRUE(algo.Bind(&g).ok());
  EXPECT_DOUBLE_EQ(algo.SingleSource(4)[4], 1.0);
}

TEST(ReadsTest, ScoresAreSampleFractions) {
  const Graph g = PaperExampleGraph();
  Reads algo(Options(50));
  ASSERT_TRUE(algo.Bind(&g).ok());
  for (double s : algo.SingleSource(0)) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    // With r = 50 every score is a multiple of 1/50.
    EXPECT_NEAR(s * 50.0, std::round(s * 50.0), 1e-9);
  }
}

TEST(ReadsTest, ApproximatesGroundTruthLoosely) {
  // READS has no error guarantee (the paper's point); with a large r the
  // estimate should still land in the right neighbourhood.
  const Graph g = PaperExampleGraph();
  const SimRankMatrix truth = PowerMethodAllPairs(g, 0.6, 55);
  Reads algo(Options(4000));
  ASSERT_TRUE(algo.Bind(&g).ok());
  const auto scores = algo.SingleSource(0);
  for (NodeId v = 1; v < 8; ++v) {
    EXPECT_NEAR(scores[static_cast<size_t>(v)], truth.At(0, v), 0.08)
        << "node " << v;
  }
}

TEST(ReadsTest, DeterministicGivenSeed) {
  const Graph g = PaperExampleGraph();
  Reads a(Options(100, 3));
  Reads b(Options(100, 3));
  ASSERT_TRUE(a.Bind(&g).ok());
  ASSERT_TRUE(b.Bind(&g).ok());
  EXPECT_EQ(a.SingleSource(1), b.SingleSource(1));
}

TEST(ReadsTest, IndexBytesScalesWithRAndN) {
  const Graph g = PaperExampleGraph();
  Reads small(Options(10));
  ASSERT_TRUE(small.Bind(&g).ok());
  Reads large(Options(100));
  ASSERT_TRUE(large.Bind(&g).ok());
  EXPECT_EQ(large.IndexBytes(), 10 * small.IndexBytes());
}

// Regression: ApplyDelta used to resample the dirty destinations in
// std::unordered_set iteration order. ResampleNode consumes the one shared
// RNG stream, so hash order leaked into every subsequent score — two deltas
// with the same edge *set* but different list order produced different
// indexes. The dirty set must be visited in sorted order: any permutation
// of an equal delta leaves the index bit-identical.
TEST(ReadsTest, ApplyDeltaIsInvariantToDeltaPermutation) {
  Rng rng(17);
  const Graph g1 = ErdosRenyi(30, 120, false, &rng);
  std::vector<Edge> edges = g1.Edges();
  EdgeDelta delta;
  for (int i = 0; i < 6; ++i) {
    delta.removed.push_back(edges[static_cast<size_t>(i) * 5]);
  }
  delta.added = {{1, 28}, {2, 27}, {3, 26}, {4, 25}, {5, 24}, {6, 23}};
  std::sort(delta.removed.begin(), delta.removed.end());
  std::sort(delta.added.begin(), delta.added.end());
  std::vector<Edge> updated_edges = edges;
  ApplyDelta(delta, &updated_edges);
  const Graph g2 = BuildGraph(30, updated_edges);

  // The same delta with both event lists reversed: equal as a set, maximally
  // different as a sequence (and hashed in a different insertion order).
  EdgeDelta permuted = delta;
  std::reverse(permuted.added.begin(), permuted.added.end());
  std::reverse(permuted.removed.begin(), permuted.removed.end());

  Reads a(Options(200));
  ASSERT_TRUE(a.Bind(&g1).ok());
  a.ApplyDelta(delta, &g2);

  Reads b(Options(200));
  ASSERT_TRUE(b.Bind(&g1).ok());
  b.ApplyDelta(permuted, &g2);

  for (NodeId u = 0; u < g2.num_nodes(); ++u) {
    ASSERT_EQ(a.SingleSource(u), b.SingleSource(u)) << "source " << u;
  }
}

TEST(ReadsTest, ApplyDeltaMatchesRebindDistribution) {
  // Incremental repair must leave the index consistent with the new graph:
  // pointers only ever point to current in-neighbours.
  Rng rng(9);
  const Graph g1 = ErdosRenyi(30, 120, false, &rng);
  std::vector<Edge> edges = g1.Edges();
  // Remove 5 edges, add 5 new ones.
  EdgeDelta delta;
  for (int i = 0; i < 5; ++i) {
    delta.removed.push_back(edges[static_cast<size_t>(i) * 7]);
  }
  delta.added = {{1, 28}, {2, 27}, {3, 26}, {4, 25}, {5, 24}};
  std::sort(delta.removed.begin(), delta.removed.end());
  std::sort(delta.added.begin(), delta.added.end());
  std::vector<Edge> updated_edges = edges;
  ApplyDelta(delta, &updated_edges);
  const Graph g2 = BuildGraph(30, updated_edges);

  Reads algo(Options(200));
  ASSERT_TRUE(algo.Bind(&g1).ok());
  algo.ApplyDelta(delta, &g2);
  // All scores computable and bounded on the new graph.
  const auto scores = algo.SingleSource(0);
  ASSERT_EQ(scores.size(), 30u);
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(ReadsTest, DisconnectedNodesNeverMeet) {
  // Two disjoint 2-cycles: no cross-component meetings possible.
  const Graph g = BuildGraph(4, {{0, 1}, {1, 0}, {2, 3}, {3, 2}});
  Reads algo(Options(500));
  ASSERT_TRUE(algo.Bind(&g).ok());
  const auto scores = algo.SingleSource(0);
  EXPECT_DOUBLE_EQ(scores[2], 0.0);
  EXPECT_DOUBLE_EQ(scores[3], 0.0);
}

TEST(ReadsTest, WalkCapLimitsMeetingDepth) {
  // On a long path meetings deeper than t steps are invisible; scores stay 0
  // for far-apart nodes when t is tiny.
  ReadsOptions opt = Options(200);
  opt.t = 1;
  const Graph g = PathGraph(6, false);
  Reads algo(opt);
  ASSERT_TRUE(algo.Bind(&g).ok());
  const auto scores = algo.SingleSource(5);
  // Node 5's only 1-step destination is node 4's neighbourhood; node 0 is
  // unreachable in one step from anything shared.
  EXPECT_DOUBLE_EQ(scores[0], 0.0);
}

// ---- Context-aware (anytime) entry point ----

TEST(ReadsContextTest, CompleteRunMatchesLegacyEntryPoint) {
  // The ctx path consumes the member RNG exactly like the legacy one, so a
  // complete run is bit-identical.
  const Graph g = CycleGraph(500, /*undirected=*/true);
  Reads legacy(Options());
  ASSERT_TRUE(legacy.Bind(&g).ok());
  const std::vector<double> expected = legacy.SingleSource(3);

  Reads algo(Options());
  ASSERT_TRUE(algo.Bind(&g).ok());
  QueryContext ctx;
  const PartialResult result = algo.SingleSource(3, &ctx);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.trials_done, g.num_nodes());
  EXPECT_EQ(result.trials_target, g.num_nodes());
  EXPECT_EQ(result.scores, expected);
}

TEST(ReadsContextTest, CancellationYieldsExactPartialPrefix) {
  // READS progress is candidates scored: a cancelled sweep scores the prefix
  // [0, trials_done) exactly as the full run would and leaves the rest 0.
  const Graph g = CycleGraph(2000, /*undirected=*/true);
  Reads full_algo(Options());
  ASSERT_TRUE(full_algo.Bind(&g).ok());
  QueryContext full_ctx;
  const PartialResult full = full_algo.SingleSource(3, &full_ctx);
  ASSERT_TRUE(full.status.ok());

  Reads algo(Options());
  ASSERT_TRUE(algo.Bind(&g).ok());
  QueryContext ctx;
  ctx.Cancel();
  const PartialResult partial = algo.SingleSource(3, &ctx);
  EXPECT_EQ(partial.status.code(), StatusCode::kCancelled);
  // The first 256-candidate chunk always completes before the checkpoint.
  ASSERT_GE(partial.trials_done, 256);
  ASSERT_LT(partial.trials_done, g.num_nodes());
  const NodeId done = static_cast<NodeId>(partial.trials_done);
  for (NodeId v = 0; v < done; ++v) {
    EXPECT_EQ(partial.scores[static_cast<size_t>(v)],
              full.scores[static_cast<size_t>(v)])
        << v;
  }
  for (NodeId v = done; v < g.num_nodes(); ++v) {
    EXPECT_EQ(partial.scores[static_cast<size_t>(v)], 0.0) << v;
  }
  // READS carries no epsilon parameter, so no bound is claimed.
  EXPECT_TRUE(std::isinf(partial.epsilon_achieved));
}

TEST(ReadsContextTest, ExpiredDeadlineStillScoresFirstChunk) {
  const Graph g = CycleGraph(2000, /*undirected=*/true);
  Reads algo(Options());
  ASSERT_TRUE(algo.Bind(&g).ok());
  QueryContext ctx(std::chrono::milliseconds(0));
  const PartialResult result = algo.SingleSource(3, &ctx);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(result.trials_done, 256);
  EXPECT_DOUBLE_EQ(result.scores[3], 1.0);
}

TEST(ReadsContextTest, InvalidSourceIsInvalidArgument) {
  const Graph g = PaperExampleGraph();
  Reads algo(Options());
  ASSERT_TRUE(algo.Bind(&g).ok());
  QueryContext ctx;
  const PartialResult result = algo.SingleSource(-1, &ctx);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(result.scores.empty());
}

}  // namespace
}  // namespace crashsim
