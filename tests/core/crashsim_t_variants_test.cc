// CrashSim-T behaviours beyond the happy path: sub-intervals, decreasing
// trends, undirected dataset stand-ins, and stats accounting.
#include <gtest/gtest.h>

#include "core/baseline_temporal.h"
#include "core/crashsim_t.h"
#include "core/query_context.h"
#include "core/query_stats.h"
#include "datasets/datasets.h"
#include "graph/temporal_graph.h"
#include "simrank/probesim.h"
#include "util/string_util.h"

namespace crashsim {
namespace {

CrashSimTOptions Options(int64_t trials = 1500, uint64_t seed = 42) {
  CrashSimTOptions opt;
  opt.crashsim.mc.c = 0.6;
  opt.crashsim.mc.trials_override = trials;
  opt.crashsim.mc.seed = seed;
  return opt;
}

TEST(CrashSimTVariantsTest, SubIntervalStartsAtBegin) {
  const Dataset ds = MakeDataset("hepth", 0.012, 8);
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 4;
  q.begin_snapshot = 3;
  q.end_snapshot = 6;
  q.theta = 0.01;
  CrashSimT engine(Options());
  const TemporalAnswer answer = engine.Answer(ds.temporal, q);
  EXPECT_EQ(answer.stats.snapshots_processed, 4);
}

TEST(CrashSimTVariantsTest, DecreasingTrendOnGrowthDataset) {
  // On a growth dataset most similarities drift as edges accrete; the
  // decreasing-trend set and increasing-trend set must both be proper
  // subsets of the node set, and a node cannot strictly satisfy both
  // (tolerance 0 makes flat scores satisfy both; use none).
  const Dataset ds = MakeDataset("as733", 0.015, 6);
  TemporalQuery inc;
  inc.kind = TemporalQueryKind::kTrendIncreasing;
  inc.source = 2;
  inc.begin_snapshot = 0;
  inc.end_snapshot = 5;
  TemporalQuery dec = inc;
  dec.kind = TemporalQueryKind::kTrendDecreasing;

  CrashSimT a(Options(1500, 7));
  CrashSimT b(Options(1500, 7));
  const auto up = a.Answer(ds.temporal, inc).nodes;
  const auto down = b.Answer(ds.temporal, dec).nodes;
  EXPECT_LT(up.size() + down.size(),
            2 * static_cast<size_t>(ds.temporal.num_nodes()));
  // Nodes in both sets had perfectly flat score sequences; with Monte-Carlo
  // estimates that is only possible for identically-zero scores.
  std::vector<NodeId> both;
  std::set_intersection(up.begin(), up.end(), down.begin(), down.end(),
                        std::back_inserter(both));
  for (NodeId v : both) {
    // flat-zero nodes only
    EXPECT_GE(v, 0);
  }
}

TEST(CrashSimTVariantsTest, UndirectedAndDirectedDatasetsBothRun) {
  for (const char* name : {"as733", "wiki-vote"}) {
    const Dataset ds = MakeDataset(name, 0.01, 4);
    TemporalQuery q;
    q.kind = TemporalQueryKind::kThreshold;
    q.source = 1;
    q.begin_snapshot = 0;
    q.end_snapshot = 3;
    q.theta = 0.02;
    CrashSimT engine(Options(800));
    const TemporalAnswer answer = engine.Answer(ds.temporal, q);
    EXPECT_EQ(answer.stats.snapshots_processed, 4) << name;
  }
}

TEST(CrashSimTVariantsTest, CorrectedModeEngineRuns) {
  const Dataset ds = MakeDataset("hepth", 0.01, 4);
  CrashSimTOptions opt = Options(1000);
  opt.crashsim.mode = RevReachMode::kCorrected;
  opt.crashsim.diag_samples = 200;
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 0;
  q.begin_snapshot = 0;
  q.end_snapshot = 3;
  q.theta = 0.02;
  CrashSimT engine(opt);
  const TemporalAnswer answer = engine.Answer(ds.temporal, q);
  for (NodeId v : answer.nodes) EXPECT_NE(v, q.source);
}

TEST(CrashSimTVariantsTest, DeterministicAcrossRuns) {
  const Dataset ds = MakeDataset("hepth", 0.01, 5);
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 2;
  q.begin_snapshot = 0;
  q.end_snapshot = 4;
  q.theta = 0.015;
  CrashSimT a(Options(1000, 9));
  CrashSimT b(Options(1000, 9));
  EXPECT_EQ(a.Answer(ds.temporal, q).nodes, b.Answer(ds.temporal, q).nodes);
}

TEST(CrashSimTVariantsTest, ScoresComputedNeverExceedsBaselineCount) {
  const Dataset ds = MakeDataset("as733", 0.015, 10);
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 3;
  q.begin_snapshot = 0;
  q.end_snapshot = 9;
  q.theta = 0.02;
  CrashSimT engine(Options(1000));
  const TemporalAnswer answer = engine.Answer(ds.temporal, q);
  const int64_t baseline =
      static_cast<int64_t>(ds.temporal.num_nodes() - 1) * 10;
  EXPECT_LE(answer.stats.scores_computed, baseline);
}

// Every temporal counter and every per-snapshot entry of `got` equals
// `want`'s.
void ExpectSameTemporalStats(const QueryStats& got, const QueryStats& want) {
  EXPECT_EQ(got.snapshots_processed, want.snapshots_processed);
  EXPECT_EQ(got.scores_computed, want.scores_computed);
  EXPECT_EQ(got.delta_prune_hits, want.delta_prune_hits);
  EXPECT_EQ(got.difference_prune_hits, want.difference_prune_hits);
  EXPECT_EQ(got.stable_tree_snapshots, want.stable_tree_snapshots);
  EXPECT_EQ(got.delta_prune_checks, want.delta_prune_checks);
  EXPECT_EQ(got.difference_prune_checks, want.difference_prune_checks);
  EXPECT_EQ(got.difference_prefilter_skips, want.difference_prefilter_skips);
  EXPECT_EQ(got.difference_tree_rebuilds, want.difference_tree_rebuilds);
  EXPECT_EQ(got.source_tree_rebuilds, want.source_tree_rebuilds);
  EXPECT_EQ(got.source_tree_reuses, want.source_tree_reuses);
  ASSERT_EQ(got.snapshots.size(), want.snapshots.size());
  for (size_t i = 0; i < want.snapshots.size(); ++i) {
    const QueryStats::SnapshotStats& g = got.snapshots[i];
    const QueryStats::SnapshotStats& w = want.snapshots[i];
    EXPECT_EQ(g.snapshot, w.snapshot) << "entry " << i;
    EXPECT_EQ(g.candidates, w.candidates) << "entry " << i;
    EXPECT_EQ(g.delta_pruned, w.delta_pruned) << "entry " << i;
    EXPECT_EQ(g.difference_pruned, w.difference_pruned) << "entry " << i;
    EXPECT_EQ(g.recomputed, w.recomputed) << "entry " << i;
    EXPECT_EQ(g.tree_stable, w.tree_stable) << "entry " << i;
  }
}

// A context with no deadline only observes: across every pruning toggle,
// query kind and revReach mode, Answer(tg, q) and Answer(tg, q, &ctx) with a
// stats sink attached return the same set and the same per-rule counters.
// At the default l_max (35 levels at c = 0.6) every delta of the growing
// stand-in reaches the source tree and neither rule ever fires, so the grid
// runs two-level trees over 30 snapshots, where both rules retire
// candidates. The ctx sink receives exactly the answer's temporal record.
TEST(CrashSimTVariantsTest, ContextNeverChangesTheAnswer) {
  const Dataset ds = MakeDataset("as733", 0.015, 30);
  int64_t delta_hits = 0;
  int64_t difference_hits = 0;
  int64_t tree_rebuilds = 0;
  for (const RevReachMode mode :
       {RevReachMode::kPaper, RevReachMode::kCorrected}) {
    for (const TemporalQueryKind kind :
         {TemporalQueryKind::kThreshold, TemporalQueryKind::kTrendIncreasing,
          TemporalQueryKind::kTrendDecreasing}) {
      for (int toggles = 0; toggles < 16; ++toggles) {
        CrashSimTOptions opt = Options(300, 11);
        opt.crashsim.mode = mode;
        opt.crashsim.diag_samples = 40;
        opt.crashsim.lmax_override = 2;
        opt.enable_delta_pruning = (toggles & 1) != 0;
        opt.enable_difference_pruning = (toggles & 2) != 0;
        opt.difference_reachability_prefilter = (toggles & 4) != 0;
        opt.reuse_source_tree = (toggles & 8) != 0;
        SCOPED_TRACE(StrFormat("mode %d kind %d toggles %d",
                               static_cast<int>(mode),
                               static_cast<int>(kind), toggles));
        TemporalQuery q;
        q.kind = kind;
        q.source = 9;
        q.begin_snapshot = 0;
        q.end_snapshot = 29;
        q.theta = 0.001;

        CrashSimT plain_engine(opt);
        const TemporalAnswer plain = plain_engine.Answer(ds.temporal, q);
        CrashSimT ctx_engine(opt);
        QueryContext ctx;
        QueryStats qs;
        ctx.set_stats(&qs);
        const TemporalAnswer with_ctx =
            ctx_engine.Answer(ds.temporal, q, &ctx);
        ASSERT_TRUE(with_ctx.status.ok()) << with_ctx.status;

        EXPECT_EQ(with_ctx.nodes, plain.nodes);
        const QueryStats& a = plain.stats;
        ExpectSameTemporalStats(with_ctx.stats, a);
        // The sink holds exactly the answer's own temporal record.
        ExpectSameTemporalStats(qs, with_ctx.stats);
        EXPECT_EQ(qs.snapshots.size(),
                  static_cast<size_t>(a.snapshots_processed));
        delta_hits += a.delta_prune_hits;
        difference_hits += a.difference_prune_hits;
        tree_rebuilds += a.difference_tree_rebuilds;
      }
    }
  }
  // The grid must reach both pruning rules and the literal tree comparison,
  // or it compares nothing of them.
  EXPECT_GT(delta_hits, 0);
  EXPECT_GT(difference_hits, 0);
  EXPECT_GT(tree_rebuilds, 0);

  // The recompute baselines report into the sink through the same site.
  SimRankOptions mc;
  mc.c = 0.6;
  mc.trials_override = 200;
  ProbeSim probesim(mc);
  StaticRecomputeEngine baseline(&probesim);
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 9;
  q.begin_snapshot = 0;
  q.end_snapshot = 4;
  q.theta = 0.001;
  QueryContext ctx;
  QueryStats qs;
  ctx.set_stats(&qs);
  const TemporalAnswer answer = baseline.Answer(ds.temporal, q, &ctx);
  ASSERT_TRUE(answer.status.ok()) << answer.status;
  EXPECT_EQ(answer.stats.snapshots_processed, 5);
  EXPECT_GT(answer.stats.scores_computed, 0);
  ExpectSameTemporalStats(qs, answer.stats);
}

// FNV-1a over 64-bit words: a fingerprint of a sequence of answers.
uint64_t Fold(uint64_t hash, int64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (static_cast<uint64_t>(word) >> (8 * byte)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// CrashSim-T scores its residual sets by walks (PartialWithTree), never by
// the sweep that answers full single-source queries, so its answers and
// pruning counts over the grid above are pinned: the fingerprint below was
// taken before the sweep existed. A change to the walks, the trees or the
// pruning rules moves it; record the reason when re-pinning.
TEST(CrashSimTVariantsTest, GridAnswersMatchThePinnedFingerprint) {
  const Dataset ds = MakeDataset("as733", 0.015, 30);
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const RevReachMode mode :
       {RevReachMode::kPaper, RevReachMode::kCorrected}) {
    for (const TemporalQueryKind kind :
         {TemporalQueryKind::kThreshold, TemporalQueryKind::kTrendIncreasing,
          TemporalQueryKind::kTrendDecreasing}) {
      for (int toggles = 0; toggles < 16; ++toggles) {
        CrashSimTOptions opt = Options(300, 11);
        opt.crashsim.mode = mode;
        opt.crashsim.diag_samples = 40;
        opt.crashsim.lmax_override = 2;
        opt.enable_delta_pruning = (toggles & 1) != 0;
        opt.enable_difference_pruning = (toggles & 2) != 0;
        opt.difference_reachability_prefilter = (toggles & 4) != 0;
        opt.reuse_source_tree = (toggles & 8) != 0;
        TemporalQuery q;
        q.kind = kind;
        q.source = 9;
        q.begin_snapshot = 0;
        q.end_snapshot = 29;
        q.theta = 0.001;
        CrashSimT engine(opt);
        const TemporalAnswer a = engine.Answer(ds.temporal, q);
        ASSERT_TRUE(a.status.ok()) << a.status;
        hash = Fold(hash, static_cast<int64_t>(a.nodes.size()));
        for (const NodeId v : a.nodes) hash = Fold(hash, v);
        hash = Fold(hash, a.stats.snapshots_processed);
        hash = Fold(hash, a.stats.scores_computed);
        hash = Fold(hash, a.stats.delta_prune_hits);
        hash = Fold(hash, a.stats.difference_prune_hits);
      }
    }
  }
  EXPECT_EQ(hash, 0xeb6b0d75d5529c7dULL) << std::hex << "0x" << hash;
}

}  // namespace
}  // namespace crashsim
