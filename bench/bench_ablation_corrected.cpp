// Ablation: the paper-verbatim revReach recurrence (Algorithm 2's
// sqrt(c)/|I(v)| with parent exclusion, scored without first-meeting
// handling) versus this library's corrected estimator (true walk marginals
// + SLING-style diagonal corrections). Quantifies the degree-skew bias
// discussed in DESIGN.md §3 on each dataset stand-in at equal trial budgets.
#include <iostream>

#include "bench_common.h"
#include "core/crashsim.h"
#include "datasets/datasets.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "simrank/walk.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace crashsim;
  FlagSet flags;
  bench::DefineCommonFlags(&flags, /*scale=*/0.04, /*snapshots=*/3,
                           /*reps=*/3, /*divisor=*/20);
  if (!flags.Parse(argc, argv)) return 1;
  const bench::BenchConfig cfg = bench::ConfigFromFlags(flags);

  std::printf("Ablation: paper-verbatim vs corrected CrashSim estimator "
              "(scale %.3f, %d sources)\n\n", cfg.scale, cfg.reps);
  ResultTable table({"dataset", "mode", "trials", "query ms", "ME",
                     "mean abs err", "top-10 prec"});

  for (const DatasetSpec& spec : PaperDatasetSpecs()) {
    const Dataset ds =
        MakeDataset(spec.name, cfg.scale, cfg.snapshots, cfg.seed);
    const Graph& g = ds.static_graph;
    GroundTruth gt(0.6, 55);
    gt.Bind(&g);
    Rng source_rng(cfg.seed * 31 + 1);
    const std::vector<NodeId> sources =
        SampleDistinctNodes(g.num_nodes(), cfg.reps, &source_rng);
    const int64_t trials = bench::BudgetedTrials(
        CrashSimTrialCount(0.6, 0.025, 0.01, g.num_nodes()), cfg.divisor);

    for (RevReachMode mode : {RevReachMode::kPaper, RevReachMode::kCorrected}) {
      CrashSimOptions opt;
      opt.mc.c = 0.6;
      opt.mc.trials_override = trials;
      opt.mc.seed = cfg.seed;
      opt.mode = mode;
      opt.diag_samples = 100;
      CrashSim algo(opt);
      algo.Bind(&g);
      OnlineStats ms;
      OnlineStats me;
      OnlineStats mae;
      OnlineStats prec;
      for (NodeId u : sources) {
        Stopwatch timer;
        const std::vector<double> scores = algo.SingleSource(u);
        ms.Add(timer.ElapsedMillis());
        const std::vector<double> truth = gt.matrix().Row(u);
        me.Add(MaxError(scores, truth, u));
        mae.Add(MeanAbsoluteError(scores, truth, u));
        prec.Add(TopKPrecision(scores, truth, u, 10));
      }
      table.AddRow({spec.table_name,
                    mode == RevReachMode::kPaper ? "paper" : "corrected",
                    std::to_string(trials), StrFormat("%.2f", ms.mean()),
                    StrFormat("%.4f", me.mean()), StrFormat("%.5f", mae.mean()),
                    StrFormat("%.2f", prec.mean())});
    }
  }
  table.Print(std::cout);
  bench::MaybeWriteCsv(table, cfg.csv);
  std::printf("\nexpected: equal query cost (same trial budget and walk\n"
              "machinery); corrected mode's ME tracks the epsilon target\n"
              "while paper mode inflates with degree skew (worst on the\n"
              "vote/citation stand-ins).\n");
  return 0;
}
