// Fig. 7 reproduction: total response time of the temporal trend query as
// the query interval grows over the AS-733 dataset — 100, 200, 500, 700
// snapshots in the paper. Expected shape: every engine grows with the
// interval; ProbeSim-T and SLING-T grow linearly (full recomputation per
// snapshot); CrashSim-T stays fastest and its advantage widens with the
// interval as the candidate set keeps shrinking.
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/baseline_temporal.h"
#include "core/crashsim_t.h"
#include "datasets/datasets.h"
#include "simrank/probesim.h"
#include "simrank/reads.h"
#include "simrank/sling.h"
#include "simrank/walk.h"
#include "util/string_util.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace crashsim;
  FlagSet flags;
  bench::DefineCommonFlags(&flags, /*scale=*/0.02, /*snapshots=*/700,
                           /*reps=*/1, /*divisor=*/100);
  flags.DefineString("intervals", "100,200,500,700",
                     "comma-separated interval lengths (snapshots)");
  flags.DefineDouble("theta", 0.02, "unused for trend; kept for sweeps");
  if (!flags.Parse(argc, argv)) return 1;
  const bench::BenchConfig cfg = bench::ConfigFromFlags(flags);

  std::vector<int> intervals;
  for (const std::string& part : Split(flags.GetString("intervals"), ',')) {
    int64_t v = 0;
    if (ParseInt64(part, &v) && v > 1) intervals.push_back(static_cast<int>(v));
  }

  int max_interval = 0;
  for (int i : intervals) max_interval = std::max(max_interval, i);
  const int snapshots = std::max(cfg.snapshots, max_interval);

  std::printf("Fig. 7: temporal trend query total time vs interval length on "
              "AS-733 (scale %.3f, %d snapshots generated)\n\n",
              cfg.scale, snapshots);
  const Dataset ds = MakeDataset("as733", cfg.scale, snapshots, cfg.seed);
  std::printf("dataset: %d nodes, %lld edges at final snapshot\n\n",
              ds.spec.nodes, static_cast<long long>(ds.spec.edges));

  const int64_t trials = bench::BudgetedTrials(
      CrashSimTrialCount(0.6, 0.025, 0.01, ds.temporal.num_nodes()),
      cfg.divisor);

  ResultTable table({"interval", "engine", "total s", "scores computed",
                     "pruned", "|result|"});
  for (int interval : intervals) {
    if (interval > ds.temporal.num_snapshots()) continue;
    TemporalQuery query;
    query.kind = TemporalQueryKind::kTrendIncreasing;
    query.source = ds.temporal.num_nodes() / 4;
    query.begin_snapshot = 0;
    query.end_snapshot = interval - 1;
    query.trend_tolerance = 0.005;

    CrashSimTOptions ct;
    ct.crashsim.mc.c = 0.6;
    ct.crashsim.mc.epsilon = 0.025;
    ct.crashsim.mc.trials_override = trials;
    ct.crashsim.mc.seed = cfg.seed;
    ct.crashsim.mode = RevReachMode::kCorrected;
    ct.crashsim.diag_samples = 50;
    CrashSimT crashsim_t(ct);

    SimRankOptions mc;
    mc.c = 0.6;
    mc.epsilon = 0.025;
    mc.seed = cfg.seed;
    mc.trials_override = trials;
    ProbeSim probesim(mc);
    StaticRecomputeEngine probesim_t(&probesim);
    Sling sling(mc);
    StaticRecomputeEngine sling_t(&sling);
    ReadsOptions ro;
    ro.r = 100;
    ro.r_q = 10;
    ro.t = 10;
    ro.seed = cfg.seed;
    Reads reads(ro);
    StaticRecomputeEngine reads_t(&reads);

    TemporalEngine* engines[] = {&crashsim_t, &probesim_t, &sling_t, &reads_t};
    for (TemporalEngine* engine : engines) {
      const Stopwatch timer;
      const TemporalAnswer answer = engine->Answer(ds.temporal, query);
      table.AddRow(
          {std::to_string(interval), engine->name(),
           StrFormat("%.2f", timer.ElapsedSeconds()),
           std::to_string(answer.stats.scores_computed),
           std::to_string(answer.stats.CandidatesSkipped()),
           std::to_string(answer.nodes.size())});
    }
  }
  table.Print(std::cout);
  bench::MaybeWriteCsv(table, cfg.csv);
  std::printf("\npaper shape to verify: times grow with the interval;\n"
              "CrashSim-T is fastest throughout and its margin widens as the\n"
              "surviving candidate set shrinks (opportunity (ii), §IV-A).\n");
  return 0;
}
