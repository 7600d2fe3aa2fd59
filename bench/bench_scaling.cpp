// Complexity-claim verification (Section III-C): CrashSim's query cost is
// O(m + n_r * |Omega|) — the revReach build is linear in edges and the trial
// loop is independent of graph size at fixed trials and candidate count —
// while ProbeSim's per-trial probe cost grows with the source's reachable
// neighbourhood. Sweeps n at a fixed trial budget and candidate count and
// prints per-query times; CrashSim's query column should stay flat while
// its bind+tree column grows linearly, and ProbeSim grows superlinearly on
// the denser families.
#include <iostream>

#include "bench_common.h"
#include "core/crashsim.h"
#include "graph/generators.h"
#include "simrank/probesim.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace crashsim;
  FlagSet flags;
  flags.DefineInt("trials", 1000, "Monte-Carlo trials for both algorithms");
  flags.DefineInt("candidates", 256, "CrashSim candidate-set size");
  flags.DefineInt("reps", 3, "queries per size");
  flags.DefineInt("seed", 7, "RNG seed");
  flags.DefineString("sizes", "1000,2000,4000,8000,16000",
                     "comma-separated node counts");
  flags.DefineString("csv", "", "also write the result table to this path");
  if (!flags.Parse(argc, argv)) return 1;

  const int64_t trials = flags.GetInt("trials");
  const int reps = static_cast<int>(flags.GetInt("reps"));
  std::printf("Scaling: CrashSim O(m + n_r*|Omega|) vs ProbeSim, %lld trials, "
              "|Omega| = %lld\n\n",
              static_cast<long long>(trials),
              static_cast<long long>(flags.GetInt("candidates")));

  ResultTable table({"n", "m", "crashsim tree ms", "tree KB",
                     "crashsim query ms", "probesim query ms"});
  for (const std::string& part : Split(flags.GetString("sizes"), ',')) {
    int64_t n = 0;
    if (!ParseInt64(part, &n) || n < 100) continue;
    Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
    const Graph g =
        BarabasiAlbert(static_cast<NodeId>(n), 4, /*undirected=*/false, &rng);

    CrashSimOptions copt;
    copt.mc.trials_override = trials;
    copt.mc.seed = 11;
    CrashSim crash(copt);
    crash.Bind(&g);
    std::vector<NodeId> candidates;
    Rng pick(13);
    for (int i = 0; i < flags.GetInt("candidates"); ++i) {
      candidates.push_back(
          static_cast<NodeId>(pick.NextBounded(static_cast<uint64_t>(n))));
    }

    SimRankOptions popt;
    popt.trials_override = trials;
    popt.seed = 11;
    ProbeSim probe(popt);
    probe.Bind(&g);

    double tree_ms = 0;
    double crash_ms = 0;
    double probe_ms = 0;
    int64_t tree_bytes = 0;
    Rng source_rng(17);
    for (int r = 0; r < reps; ++r) {
      const NodeId u =
          static_cast<NodeId>(source_rng.NextBounded(static_cast<uint64_t>(n)));
      Stopwatch t1;
      const ReverseReachableTree tree = crash.BuildTree(u);
      tree_ms += t1.ElapsedMillis();
      tree_bytes += tree.MemoryBytes();
      Stopwatch t2;
      auto s1 = crash.PartialWithTree(tree, candidates, nullptr).scores;
      crash_ms += t2.ElapsedMillis();
      Stopwatch t3;
      auto s2 = probe.SingleSource(u);
      probe_ms += t3.ElapsedMillis();
    }
    table.AddRow({std::to_string(n), std::to_string(g.num_edges()),
                  StrFormat("%.2f", tree_ms / reps),
                  StrFormat("%.1f", static_cast<double>(tree_bytes) / reps / 1024.0),
                  StrFormat("%.2f", crash_ms / reps),
                  StrFormat("%.2f", probe_ms / reps)});
  }
  table.Print(std::cout);
  crashsim::bench::MaybeWriteCsv(table, flags.GetString("csv"));
  std::printf("\nexpected: 'crashsim query ms' flat in n (fixed n_r and\n"
              "|Omega|); 'crashsim tree ms' linear in m; 'tree KB' tracks the\n"
              "live entry count (CSR storage), not l_max*n; ProbeSim grows\n"
              "with the probe neighbourhood.\n");
  return 0;
}
