// Regression tests for the Properties 1-2 pruning counters: the effort
// counters (checks, prefilter skips, tree rebuilds) introduced for
// observability must agree exactly with the structure of the fixture, and
// pruning must never change the answer a recompute-everything baseline
// produces. The fixture is the split world of crashsim_t_test.cc: a static
// star component holding the source plus a far component whose wiring churns
// every snapshot, so every delta is provably unable to reach the surviving
// candidates and both rules can retire all of them.
#include "core/crashsim_t.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/query_context.h"
#include "core/query_stats.h"
#include "graph/temporal_graph.h"

namespace crashsim {
namespace {

// Two components: a static undirected star 0..5 (hub 0) with the query
// source, and a churning component 6..9 (same shape as crashsim_t_test.cc).
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
    const NodeId d = static_cast<NodeId>(6 + ((t + 2) % 4));
    if (a != c) edges.push_back({a, c});
    if (c != d) edges.push_back({c, d});
    b.AddSnapshot(edges);
  }
  return b.Build();
}

CrashSimTOptions Options(int64_t trials, uint64_t seed = 42) {
  CrashSimTOptions opt;
  opt.crashsim.mc.c = 0.6;
  opt.crashsim.mc.trials_override = trials;
  opt.crashsim.mc.seed = seed;
  return opt;
}

TemporalQuery StarThresholdQuery(int end_snapshot) {
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 1;
  q.begin_snapshot = 0;
  q.end_snapshot = end_snapshot;
  q.theta = 0.1;
  return q;
}

// After snapshot 0 the surviving candidates are the co-leaves {2,3,4,5};
// every later delta lives in the far component, so difference pruning (the
// only rule enabled) must skip 100% of the candidates it examines at every
// stable snapshot — via the reachability prefilter, with zero tree rebuilds.
TEST(PruningCountersTest, DifferencePruningSkipsEverythingViaPrefilter) {
  const TemporalGraph tg = SplitWorld(6);
  CrashSimTOptions opt = Options(4000);
  opt.enable_delta_pruning = false;
  CrashSimT engine(opt);
  const TemporalAnswer answer = engine.Answer(tg, StarThresholdQuery(5));
  ASSERT_EQ(answer.nodes, (std::vector<NodeId>{2, 3, 4, 5}));

  // 4 candidates examined at each of the 5 stable snapshots, all pruned.
  EXPECT_EQ(answer.stats.stable_tree_snapshots, 5);
  EXPECT_EQ(answer.stats.difference_prune_checks, 4 * 5);
  EXPECT_EQ(answer.stats.difference_prune_hits, 4 * 5);
  EXPECT_EQ(answer.stats.delta_prune_hits, 0);
  // Every hit resolved by the reachability prefilter: no candidate tree was
  // ever rebuilt for a literal comparison.
  EXPECT_EQ(answer.stats.difference_prefilter_skips, 4 * 5);
  EXPECT_EQ(answer.stats.difference_tree_rebuilds, 0);
  // Only snapshot 0 computed scores (all 9 non-source candidates).
  EXPECT_EQ(answer.stats.scores_computed, 9);
}

// Same 100% skip rate with the prefilter disabled: Algorithm 3's literal
// tree comparison rebuilds two trees per examined candidate and reaches the
// identical pruning decisions.
TEST(PruningCountersTest, DifferencePruningSkipsEverythingViaLiteralTrees) {
  const TemporalGraph tg = SplitWorld(6);
  CrashSimTOptions opt = Options(4000);
  opt.enable_delta_pruning = false;
  opt.difference_reachability_prefilter = false;
  CrashSimT engine(opt);
  const TemporalAnswer answer = engine.Answer(tg, StarThresholdQuery(5));
  ASSERT_EQ(answer.nodes, (std::vector<NodeId>{2, 3, 4, 5}));

  EXPECT_EQ(answer.stats.difference_prune_checks, 4 * 5);
  EXPECT_EQ(answer.stats.difference_prune_hits, 4 * 5);
  EXPECT_EQ(answer.stats.difference_prefilter_skips, 0);
  // One comparison (a rebuilt pair counts once) per examined candidate.
  EXPECT_EQ(answer.stats.difference_tree_rebuilds, 4 * 5);
  EXPECT_EQ(answer.stats.scores_computed, 9);
}

// Delta pruning under churn, compared against the recompute-everything
// baseline on the context-aware path: per-candidate RNG streams make a
// recomputed unchanged candidate score bit-identical to its carried-over
// score, so the pruned and unpruned runs must agree on every snapshot's
// filter decisions — identical answers by construction, not by luck.
TEST(PruningCountersTest, DeltaPruningFiresAndMatchesUnprunedBaseline) {
  const TemporalGraph tg = SplitWorld(6);
  const TemporalQuery q = StarThresholdQuery(5);

  CrashSimTOptions delta_only = Options(4000);
  delta_only.enable_difference_pruning = false;
  CrashSimTOptions no_pruning = Options(4000);
  no_pruning.enable_delta_pruning = false;
  no_pruning.enable_difference_pruning = false;

  QueryContext ctx;
  QueryStats qs;
  ctx.set_stats(&qs);
  const TemporalAnswer pruned =
      CrashSimT(delta_only).Answer(tg, q, &ctx);
  const TemporalAnswer baseline =
      CrashSimT(no_pruning).Answer(tg, q, /*ctx=*/nullptr);
  ASSERT_TRUE(pruned.complete());
  ASSERT_TRUE(baseline.complete());

  EXPECT_EQ(pruned.nodes, baseline.nodes);
  EXPECT_EQ(pruned.nodes, (std::vector<NodeId>{2, 3, 4, 5}));

  // The rule actually fired: all 4 surviving candidates examined and pruned
  // at each of the 5 churn snapshots, mirrored into the stats sink.
  EXPECT_EQ(pruned.stats.delta_prune_checks, 4 * 5);
  EXPECT_EQ(pruned.stats.delta_prune_hits, 4 * 5);
  EXPECT_EQ(qs.delta_prune_checks, 4 * 5);
  EXPECT_EQ(qs.delta_prune_hits, 4 * 5);
  EXPECT_EQ(qs.scores_computed, 9);
  // The baseline did the work pruning avoided.
  EXPECT_EQ(baseline.stats.scores_computed, 9 + 4 * 5);

  // Per-snapshot breakdown: snapshot 0 recomputes everything; each churn
  // snapshot enters with 4 candidates, prunes all 4, recomputes none.
  ASSERT_EQ(qs.snapshots.size(), 6u);
  EXPECT_EQ(qs.snapshots[0].candidates, 9);
  EXPECT_EQ(qs.snapshots[0].recomputed, 9);
  for (size_t i = 1; i < qs.snapshots.size(); ++i) {
    EXPECT_EQ(qs.snapshots[i].candidates, 4) << "snapshot " << i;
    EXPECT_EQ(qs.snapshots[i].delta_pruned, 4) << "snapshot " << i;
    EXPECT_EQ(qs.snapshots[i].recomputed, 0) << "snapshot " << i;
    EXPECT_TRUE(qs.snapshots[i].tree_stable) << "snapshot " << i;
  }
}

}  // namespace
}  // namespace crashsim
