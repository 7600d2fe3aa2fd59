// Property-style sweep: every estimator in the library must approximate the
// power-method ground truth on a family of random graphs. Bounds are loose
// (these are Monte-Carlo estimators run at test-sized budgets); the point is
// catching systematic bias or broken probability bookkeeping, not measuring
// precision — the benches do that.
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/crashsim.h"
#include "graph/generators.h"
#include "simrank/monte_carlo.h"
#include "simrank/power_method.h"
#include "simrank/probesim.h"
#include "simrank/reads.h"
#include "simrank/simrank.h"
#include "simrank/sling.h"
#include "util/rng.h"

namespace crashsim {
namespace {

struct GraphCase {
  std::string name;
  Graph graph;
};

GraphCase MakeGraphCase(const std::string& name) {
  Rng rng(1234);
  if (name == "erdos_renyi_directed") {
    return {name, ErdosRenyi(60, 240, false, &rng)};
  }
  if (name == "erdos_renyi_undirected") {
    return {name, ErdosRenyi(60, 140, true, &rng)};
  }
  if (name == "barabasi_albert") {
    return {name, BarabasiAlbert(80, 3, false, &rng)};
  }
  if (name == "copying_model") {
    return {name, CopyingModel(70, 4, 0.5, &rng)};
  }
  return {name, PaperExampleGraph()};
}

std::unique_ptr<SimRankAlgorithm> MakeAlgorithm(const std::string& name) {
  SimRankOptions mc;
  mc.c = 0.6;
  mc.seed = 99;
  if (name == "probesim") {
    mc.trials_override = 8000;
    return std::make_unique<ProbeSim>(mc);
  }
  if (name == "pairwise_mc") {
    mc.trials_override = 8000;
    return std::make_unique<PairwiseMonteCarlo>(mc);
  }
  if (name == "sling") {
    auto sling = std::make_unique<Sling>(mc);
    sling->set_diag_samples(1500);
    return sling;
  }
  if (name == "crashsim_corrected" || name == "crashsim_paper") {
    CrashSimOptions opt;
    opt.mc = mc;
    opt.mc.trials_override = 8000;
    opt.mode = name == "crashsim_paper" ? RevReachMode::kPaper
                                        : RevReachMode::kCorrected;
    opt.diag_samples = 1500;
    return std::make_unique<CrashSim>(opt);
  }
  ReadsOptions ro;
  ro.r = 3000;
  ro.t = 12;
  ro.seed = 99;
  return std::make_unique<Reads>(ro);
}

double ErrorBudget(const std::string& algorithm) {
  // READS couples walks through shared pointers (known bias on cyclic
  // graphs); give it the loosest budget. The paper-verbatim CrashSim
  // recurrence is deliberately NOT in this sweep: its degree-skew bias
  // (DESIGN.md §3) reaches ME ~1 on skewed directed graphs, which is
  // characterised by bench_ablation_corrected and pinned by the targeted
  // star/Example-2 tests rather than bounded here.
  return algorithm == "reads" ? 0.10 : 0.06;
}

using Params = std::tuple<std::string, std::string>;  // (algorithm, graph)

class AccuracySweep : public testing::TestWithParam<Params> {};

TEST_P(AccuracySweep, MaxErrorWithinBudget) {
  const auto& [algo_name, graph_name] = GetParam();
  const GraphCase gc = MakeGraphCase(graph_name);
  const SimRankMatrix truth = PowerMethodAllPairs(gc.graph, 0.6, 55);
  auto algo = MakeAlgorithm(algo_name);
  ASSERT_TRUE(algo->Bind(&gc.graph).ok());

  Rng source_rng(7);
  const double budget = ErrorBudget(algo_name);
  for (int rep = 0; rep < 3; ++rep) {
    const NodeId u = static_cast<NodeId>(
        source_rng.NextBounded(static_cast<uint64_t>(gc.graph.num_nodes())));
    const auto scores = algo->SingleSource(u);
    double me = 0.0;
    for (NodeId v = 0; v < gc.graph.num_nodes(); ++v) {
      if (v == u) continue;
      me = std::max(me,
                    std::abs(scores[static_cast<size_t>(v)] - truth.At(u, v)));
    }
    EXPECT_LE(me, budget) << algo_name << " on " << graph_name << " source "
                          << u;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllGraphs, AccuracySweep,
    testing::Combine(testing::Values("probesim", "sling", "reads",
                                     "pairwise_mc", "crashsim_corrected"),
                     testing::Values("paper_example", "erdos_renyi_directed",
                                     "erdos_renyi_undirected",
                                     "barabasi_albert", "copying_model")),
    [](const testing::TestParamInfo<Params>& param_info) {
      return std::get<0>(param_info.param) + "_" + std::get<1>(param_info.param);
    });

}  // namespace
}  // namespace crashsim
