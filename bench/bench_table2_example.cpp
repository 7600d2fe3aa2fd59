// Table II reproduction: SimRank scores with respect to node A on the 8-node
// example graph of Fig. 2, computed "by the Power Method within 1e-5 error"
// at c = 0.25 (the decay the paper uses for the worked example). CrashSim's
// estimates are printed alongside for a first sanity comparison.
#include <iostream>
#include <numeric>
#include <vector>

#include "bench_common.h"
#include "core/crashsim.h"
#include "eval/experiment.h"
#include "graph/generators.h"
#include "simrank/power_method.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace crashsim;
  FlagSet flags;
  flags.DefineInt("iterations", 55, "power-method iterations");
  flags.DefineInt("trials", 50000, "CrashSim Monte-Carlo trials");
  flags.DefineString("csv", "", "also write the table to this path");
  if (!flags.Parse(argc, argv)) return 1;

  const Graph g = PaperExampleGraph();
  const double c = 0.25;
  const SimRankMatrix exact =
      PowerMethodAllPairs(g, c, static_cast<int>(flags.GetInt("iterations")));

  CrashSimOptions opt;
  opt.mc.c = c;
  opt.mc.trials_override = flags.GetInt("trials");
  opt.mc.seed = 2020;
  opt.mode = RevReachMode::kCorrected;
  opt.diag_samples = 5000;
  CrashSim crashsim(opt);
  CRASHSIM_CHECK(crashsim.Bind(&g).ok());
  // The walks at --trials (SingleSource would sweep instead).
  std::vector<NodeId> all(static_cast<size_t>(g.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  const std::vector<double> estimated = crashsim.Partial(0, all);

  std::printf("Table II: SimRank scores with respect to node A "
              "(c = 0.25, power method)\n\n");
  ResultTable table({"node", "sim(A,v) exact", "CrashSim estimate", "abs err"});
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const double truth = exact.At(0, v);
    const double est = estimated[static_cast<size_t>(v)];
    table.AddRow({PaperExampleNodeName(v), StrFormat("%.5f", truth),
                  StrFormat("%.5f", est), StrFormat("%.5f", truth - est < 0
                                                               ? est - truth
                                                               : truth - est)});
  }
  table.Print(std::cout);
  bench::MaybeWriteCsv(table, flags.GetString("csv"));
  std::printf("\npaper check: the revReach probabilities behind these scores\n"
              "match Example 2 exactly (asserted in rev_reach_test.cc).\n");
  return 0;
}
