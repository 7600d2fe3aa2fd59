// Ablation: what each CrashSim-T pruning rule contributes. Runs the same
// temporal threshold query with (a) both rules, (b) delta only, (c)
// difference only, (d) none, on two workloads:
//  * an AS-733 stand-in (global churn — the source tree rarely stabilises,
//    so pruning fires rarely; candidate shrinkage does the heavy lifting),
//  * a "stable region" workload where churn is confined to a far-away part
//    of the graph (the regime of the paper's Examples 3-4, where the rules
//    retire nearly every candidate).
#include <iostream>

#include "bench_common.h"
#include "core/crashsim_t.h"
#include "datasets/datasets.h"
#include "graph/generators.h"
#include "graph/temporal_graph.h"
#include "simrank/walk.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace crashsim;

// Two-region world: a static Barabási–Albert community of `stable_n` nodes
// containing the source, plus a churning ER region; a single bridge edge
// oriented *out of* the stable region keeps the source's reverse-reachable
// tree independent of the churn.
TemporalGraph StableRegionWorld(NodeId stable_n, NodeId churn_n, int snapshots,
                                Rng* rng) {
  const Graph stable = BarabasiAlbert(stable_n, 2, /*undirected=*/false, rng);
  const NodeId n = static_cast<NodeId>(stable_n + churn_n);
  TemporalGraphBuilder builder(n, /*undirected=*/false);
  std::vector<Edge> base = stable.Edges();
  base.push_back(Edge{0, stable_n});  // bridge: stable -> churn region only
  std::vector<Edge> churn_edges;
  for (NodeId v = 0; v < churn_n; ++v) {
    churn_edges.push_back(Edge{static_cast<NodeId>(stable_n + v),
                               static_cast<NodeId>(stable_n + (v + 1) % churn_n)});
  }
  for (int t = 0; t < snapshots; ++t) {
    std::vector<Edge> edges = base;
    for (const Edge& e : churn_edges) edges.push_back(e);
    // Rotate a couple of churn-region chords every snapshot.
    for (int k = 0; k < 3; ++k) {
      const NodeId a = static_cast<NodeId>(
          stable_n + rng->NextBounded(static_cast<uint64_t>(churn_n)));
      const NodeId b = static_cast<NodeId>(
          stable_n + rng->NextBounded(static_cast<uint64_t>(churn_n)));
      if (a != b) edges.push_back(Edge{a, b});
    }
    builder.AddSnapshot(edges);
  }
  return builder.Build();
}

void RunConfigs(const TemporalGraph& tg, const TemporalQuery& query,
                int64_t trials, uint64_t seed, const char* workload,
                ResultTable* table) {
  struct Config {
    const char* label;
    bool delta;
    bool difference;
  };
  const Config configs[] = {
      {"both rules", true, true},
      {"delta only", true, false},
      {"difference only", false, true},
      {"no pruning", false, false},
  };
  for (const Config& c : configs) {
    CrashSimTOptions opt;
    opt.crashsim.mc.c = 0.6;
    opt.crashsim.mc.trials_override = trials;
    opt.crashsim.mc.seed = seed;
    opt.enable_delta_pruning = c.delta;
    opt.enable_difference_pruning = c.difference;
    CrashSimT engine(opt);
    const Stopwatch timer;
    const TemporalAnswer answer = engine.Answer(tg, query);
    table->AddRow({workload, c.label,
                   StrFormat("%.3f", timer.ElapsedSeconds()),
                   std::to_string(answer.stats.scores_computed),
                   std::to_string(answer.stats.delta_prune_hits),
                   std::to_string(answer.stats.difference_prune_hits),
                   std::to_string(answer.nodes.size())});
  }
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  bench::DefineCommonFlags(&flags, /*scale=*/0.02, /*snapshots=*/30,
                           /*reps=*/1, /*divisor=*/100);
  if (!flags.Parse(argc, argv)) return 1;
  const bench::BenchConfig cfg = bench::ConfigFromFlags(flags);

  std::printf("Ablation: CrashSim-T pruning rules (scale %.3f, %d snapshots)"
              "\n\n", cfg.scale, cfg.snapshots);
  ResultTable table({"workload", "pruning", "total s", "scores", "delta-pruned",
                     "diff-pruned", "|result|"});

  {
    const Dataset ds = MakeDataset("as733", cfg.scale, cfg.snapshots, cfg.seed);
    TemporalQuery q;
    q.kind = TemporalQueryKind::kThreshold;
    q.source = ds.temporal.num_nodes() / 4;
    q.begin_snapshot = 0;
    q.end_snapshot = ds.temporal.num_snapshots() - 1;
    q.theta = 0.02;
    const int64_t trials = bench::BudgetedTrials(
        CrashSimTrialCount(0.6, 0.025, 0.01, ds.temporal.num_nodes()),
        cfg.divisor);
    RunConfigs(ds.temporal, q, trials, cfg.seed, "as733 (global churn)",
               &table);
  }
  {
    Rng rng(cfg.seed + 31);
    const TemporalGraph tg =
        StableRegionWorld(/*stable_n=*/120, /*churn_n=*/80, cfg.snapshots,
                          &rng);
    TemporalQuery q;
    q.kind = TemporalQueryKind::kThreshold;
    q.source = 5;
    q.begin_snapshot = 0;
    q.end_snapshot = tg.num_snapshots() - 1;
    q.theta = 0.02;
    const int64_t trials = bench::BudgetedTrials(
        CrashSimTrialCount(0.6, 0.025, 0.01, tg.num_nodes()), cfg.divisor);
    RunConfigs(tg, q, trials, cfg.seed, "stable region", &table);
  }

  table.Print(std::cout);
  bench::MaybeWriteCsv(table, cfg.csv);
  std::printf("\nexpected: on the stable-region workload the rules retire\n"
              "nearly all per-snapshot work ('scores' collapses toward the\n"
              "first snapshot's count); under global churn the source tree\n"
              "rarely stabilises and the rules fire rarely, so the win comes\n"
              "from candidate shrinkage instead.\n");
  return 0;
}
