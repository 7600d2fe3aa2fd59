// Closed-form SimRank values swept across every consistent estimator and
// several decay factors. Two families with known exact answers:
//  * undirected star: s(leaf_i, leaf_j) = c, s(hub, leaf) = 0;
//  * complete graph K_n: s(u, v) = c(n-2) / ((n-1)^2 - c((n-1)^2 - (n-2))).
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/crashsim.h"
#include "graph/generators.h"
#include "simrank/monte_carlo.h"
#include "simrank/probesim.h"
#include "simrank/simrank.h"
#include "simrank/sling.h"

namespace crashsim {
namespace {

std::unique_ptr<SimRankAlgorithm> MakeEstimator(const std::string& name,
                                                double c) {
  SimRankOptions mc;
  mc.c = c;
  mc.trials_override = 30000;
  mc.seed = 77;
  if (name == "probesim") return std::make_unique<ProbeSim>(mc);
  if (name == "pairwise_mc") return std::make_unique<PairwiseMonteCarlo>(mc);
  if (name == "sling") {
    auto sling = std::make_unique<Sling>(mc);
    sling->set_diag_samples(4000);
    return sling;
  }
  CrashSimOptions opt;
  opt.mc = mc;
  opt.mode = RevReachMode::kCorrected;
  opt.diag_samples = 4000;
  return std::make_unique<CrashSim>(opt);
}

using Params = std::tuple<std::string, double>;  // (estimator, c)

class ClosedFormSweep : public testing::TestWithParam<Params> {};

TEST_P(ClosedFormSweep, StarLeafPairsScoreC) {
  const auto& [name, c] = GetParam();
  const Graph g = StarGraph(7, /*undirected=*/true);
  auto algo = MakeEstimator(name, c);
  ASSERT_TRUE(algo->Bind(&g).ok());
  const auto scores = algo->SingleSource(1);
  for (NodeId v = 2; v < 7; ++v) {
    EXPECT_NEAR(scores[static_cast<size_t>(v)], c, 0.025)
        << name << " c=" << c << " leaf " << static_cast<int>(v);
  }
  EXPECT_NEAR(scores[0], 0.0, 0.02) << name << " hub";
}

TEST_P(ClosedFormSweep, CompleteGraphPairFormula) {
  const auto& [name, c] = GetParam();
  const NodeId n = 5;
  const Graph g = CompleteGraph(n, /*undirected=*/true);
  const double nm1 = n - 1;
  const double exact =
      c * (n - 2) / (nm1 * nm1 - c * (nm1 * nm1 - (n - 2)));
  auto algo = MakeEstimator(name, c);
  ASSERT_TRUE(algo->Bind(&g).ok());
  const auto scores = algo->SingleSource(0);
  for (NodeId v = 1; v < n; ++v) {
    EXPECT_NEAR(scores[static_cast<size_t>(v)], exact, 0.03)
        << name << " c=" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EstimatorsTimesDecay, ClosedFormSweep,
    testing::Combine(testing::Values("crashsim_corrected", "probesim",
                                     "pairwise_mc", "sling"),
                     testing::Values(0.4, 0.6, 0.8)),
    [](const testing::TestParamInfo<Params>& param_info) {
      const int c_tag =
          static_cast<int>(std::get<1>(param_info.param) * 100 + 0.5);
      return std::get<0>(param_info.param) + "_c" + std::to_string(c_tag);
    });

}  // namespace
}  // namespace crashsim
