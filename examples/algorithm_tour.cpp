// A tour of every single-source SimRank implementation in the library —
// CrashSim (paper and corrected modes), ProbeSim, SLING, READS — against the
// power-method ground truth on one dataset stand-in. Prints a comparison
// table: response time, Max Error (the paper's ME metric), and top-10
// precision, a miniature of the Fig. 5 experiment.
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "core/crashsim.h"
#include "datasets/datasets.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "simrank/power_method.h"
#include "simrank/probesim.h"
#include "simrank/reads.h"
#include "simrank/sling.h"
#include "util/string_util.h"
#include "util/timer.h"

int main() {
  using namespace crashsim;

  const Dataset ds = MakeDataset("hepth", 0.03, /*snapshots_override=*/3,
                                 /*seed=*/4);
  const Graph& g = ds.static_graph;
  std::printf("dataset: %s stand-in, %d nodes, %lld edges\n\n",
              ds.spec.table_name.c_str(), g.num_nodes(),
              static_cast<long long>(g.num_edges()));

  std::printf("computing ground truth (power method, 55 iterations)...\n");
  PowerMethod gt(0.6, 55);
  if (Status s = gt.Bind(&g); !s.ok()) {
    std::fprintf(stderr, "ground truth: %s\n", s.ToString().c_str());
    return 1;
  }
  const NodeId source = g.num_nodes() / 2;
  const std::vector<double> truth = gt.matrix().Row(source);

  SimRankOptions mc;
  mc.c = 0.6;
  mc.epsilon = 0.05;
  mc.trials_override = 8000;
  mc.seed = 7;

  CrashSimOptions paper_opt;
  paper_opt.mc = mc;
  paper_opt.mode = RevReachMode::kPaper;
  CrashSimOptions corrected_opt = paper_opt;
  corrected_opt.mode = RevReachMode::kCorrected;
  corrected_opt.diag_samples = 500;
  ReadsOptions reads_opt;
  reads_opt.seed = 7;

  struct Entry {
    std::string label;
    std::unique_ptr<SimRankAlgorithm> algo;
  };
  std::vector<Entry> entries;
  entries.push_back({"CrashSim(paper)", std::make_unique<CrashSim>(paper_opt)});
  entries.push_back(
      {"CrashSim(corrected)", std::make_unique<CrashSim>(corrected_opt)});
  entries.push_back({"ProbeSim", std::make_unique<ProbeSim>(mc)});
  entries.push_back({"SLING", std::make_unique<Sling>(mc)});
  entries.push_back({"READS(r=100)", std::make_unique<Reads>(reads_opt)});

  ResultTable table({"algorithm", "bind+query ms", "max error", "top-10 prec"});
  for (Entry& e : entries) {
    Stopwatch timer;
    // Index construction counts, as in the paper's Fig. 5.
    if (Status s = e.algo->Bind(&g); !s.ok()) {
      std::fprintf(stderr, "%s: %s\n", e.label.c_str(), s.ToString().c_str());
      return 1;
    }
    const std::vector<double> scores = e.algo->SingleSource(source);
    const double ms = timer.ElapsedMillis();
    table.AddRow({e.label, StrFormat("%.1f", ms),
                  StrFormat("%.4f", MaxError(scores, truth, source)),
                  StrFormat("%.2f", TopKPrecision(scores, truth, source, 10))});
  }
  table.Print(std::cout);

  std::printf(
      "\nNotes: READS carries no error guarantee (loosest ME); the paper-\n"
      "verbatim revReach recurrence shows its degree-skew bias against the\n"
      "corrected mode (DESIGN.md §3). Timings include index construction.\n");
  return 0;
}
