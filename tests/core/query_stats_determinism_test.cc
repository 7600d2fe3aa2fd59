// QueryStats determinism contract: every counter-valued field must be a pure
// function of (seed, options, query) — never of num_threads or batch_size. The engine
// guarantees this by deriving each candidate's RNG stream from
// (seed, source, candidate) and folding per-candidate counters in index
// order after parallel regions join; these tests pin that contract for both
// the static estimator and CrashSim-T.
#include <vector>

#include <gtest/gtest.h>

#include "core/crashsim.h"
#include "core/crashsim_t.h"
#include "core/query_context.h"
#include "core/query_stats.h"
#include "graph/generators.h"
#include "graph/temporal_generators.h"
#include "graph/temporal_graph.h"
#include "util/rng.h"

namespace crashsim {
namespace {

// The thread-count-independent slice of a QueryStats record (timing fields
// and deadline slack are wall-clock and excluded by design).
std::vector<int64_t> CounterFields(const QueryStats& qs) {
  std::vector<int64_t> out = {
      qs.trials_target,
      qs.trials_run,
      qs.trials_truncated ? 1 : 0,
      qs.tree_builds,
      qs.tree_entries,
      qs.tree_bytes,
      qs.tree_levels,
      qs.candidates_evaluated,
      qs.walks_sampled,
      qs.walk_steps,
      qs.tree_hits,
      qs.snapshots_processed,
      qs.stable_tree_snapshots,
      qs.source_tree_rebuilds,
      qs.source_tree_reuses,
      qs.delta_prune_checks,
      qs.delta_prune_hits,
      qs.difference_prune_checks,
      qs.difference_prune_hits,
      qs.difference_prefilter_skips,
      qs.difference_tree_rebuilds,
      qs.scores_computed,
  };
  for (const QueryStats::SnapshotStats& s : qs.snapshots) {
    out.push_back(s.snapshot);
    out.push_back(s.candidates);
    out.push_back(s.delta_pruned);
    out.push_back(s.difference_pruned);
    out.push_back(s.recomputed);
    out.push_back(s.tree_stable ? 1 : 0);
  }
  return out;
}

TEST(QueryStatsDeterminismTest, CrashSimCountersIndependentOfThreadCount) {
  // Batch size is the other scheduling knob: the batched walk kernel must
  // count the same walks, steps and tree hits as its batch-1 scalar twin.
  Rng rng(9);
  const Graph g = ErdosRenyi(60, 240, false, &rng);

  QueryStats reference_stats;
  std::vector<double> reference_scores;
  for (const int batch : {1, 64, 256}) {
    for (const int threads : {1, 8}) {
      CrashSimOptions opt;
      opt.mc.c = 0.6;
      opt.mc.trials_override = 400;
      opt.mc.seed = 77;
      opt.num_threads = threads;
      opt.batch_size = batch;
      CrashSim algo(opt);
      ASSERT_TRUE(algo.Bind(&g).ok());
      QueryStats stats;
      QueryContext ctx;
      ctx.set_stats(&stats);
      const PartialResult result = algo.SingleSource(5, &ctx);
      ASSERT_TRUE(result.complete())
          << "batch=" << batch << " threads=" << threads;
      if (reference_scores.empty()) {
        reference_stats = stats;
        reference_scores = result.scores;
        continue;
      }
      EXPECT_EQ(CounterFields(reference_stats), CounterFields(stats))
          << "batch=" << batch << " threads=" << threads;
      EXPECT_EQ(reference_stats.epsilon_achieved, stats.epsilon_achieved);
      // The scores themselves are bit-identical too — same contract.
      EXPECT_EQ(reference_scores, result.scores)
          << "batch=" << batch << " threads=" << threads;
    }
  }
}

TEST(QueryStatsDeterminismTest, CrashSimTCountersIndependentOfThreadCount) {
  Rng rng(21);
  const Graph base = ErdosRenyi(40, 120, false, &rng);
  ChurnOptions churn;
  churn.num_snapshots = 5;
  churn.churn_rate = 0.01;
  const TemporalGraph tg = EvolveWithChurn(base, churn, &rng);

  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 3;
  q.begin_snapshot = 0;
  q.end_snapshot = 4;
  q.theta = 0.01;

  QueryStats stats_by_threads[2];
  std::vector<NodeId> nodes_by_threads[2];
  const int thread_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    CrashSimTOptions opt;
    opt.crashsim.mc.c = 0.6;
    opt.crashsim.mc.trials_override = 300;
    opt.crashsim.mc.seed = 77;
    opt.crashsim.num_threads = thread_counts[i];
    CrashSimT engine(opt);
    QueryContext ctx;
    ctx.set_stats(&stats_by_threads[i]);
    const TemporalAnswer answer = engine.Answer(tg, q, &ctx);
    ASSERT_TRUE(answer.complete()) << "threads=" << thread_counts[i];
    nodes_by_threads[i] = answer.nodes;
  }
  EXPECT_EQ(CounterFields(stats_by_threads[0]),
            CounterFields(stats_by_threads[1]));
  EXPECT_EQ(nodes_by_threads[0], nodes_by_threads[1]);
}

}  // namespace
}  // namespace crashsim
