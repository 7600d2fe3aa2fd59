// Property grid: every temporal engine × every dataset stand-in × both
// query kinds must satisfy the engine contract — valid node sets, correct
// stats accounting, determinism, and candidate monotonicity. This is the
// regression net for the Fig. 6/7 harnesses.
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/baseline_temporal.h"
#include "core/crashsim_t.h"
#include "datasets/datasets.h"
#include "simrank/probesim.h"
#include "simrank/reads.h"
#include "simrank/sling.h"

namespace crashsim {
namespace {

// Owns the wrapped algorithm together with the engine.
struct EngineBundle {
  std::unique_ptr<SimRankAlgorithm> algorithm;
  std::unique_ptr<TemporalEngine> engine;
};

EngineBundle MakeEngine(const std::string& name, uint64_t seed) {
  SimRankOptions mc;
  mc.c = 0.6;
  mc.trials_override = 400;
  mc.seed = seed;
  EngineBundle bundle;
  if (name == "crashsim-t") {
    CrashSimTOptions opt;
    opt.crashsim.mc = mc;
    bundle.engine = std::make_unique<CrashSimT>(opt);
  } else if (name == "probesim-t") {
    bundle.algorithm = std::make_unique<ProbeSim>(mc);
    bundle.engine =
        std::make_unique<StaticRecomputeEngine>(bundle.algorithm.get());
  } else if (name == "sling-t") {
    bundle.algorithm = std::make_unique<Sling>(mc);
    bundle.engine =
        std::make_unique<StaticRecomputeEngine>(bundle.algorithm.get());
  } else {
    ReadsOptions ro;
    ro.r = 60;
    ro.seed = seed;
    bundle.algorithm = std::make_unique<Reads>(ro);
    bundle.engine =
        std::make_unique<StaticRecomputeEngine>(bundle.algorithm.get());
  }
  return bundle;
}

using Params = std::tuple<std::string, std::string, TemporalQueryKind>;

class TemporalEngineGrid : public testing::TestWithParam<Params> {};

TEST_P(TemporalEngineGrid, ContractHolds) {
  const auto& [engine_name, dataset, kind] = GetParam();
  const Dataset ds = MakeDataset(dataset, 0.008, /*snapshots_override=*/4);

  TemporalQuery q;
  q.kind = kind;
  q.source = ds.temporal.num_nodes() / 2;
  q.begin_snapshot = 0;
  q.end_snapshot = 3;
  q.theta = 0.01;
  q.trend_tolerance = 0.01;

  EngineBundle a = MakeEngine(engine_name, 77);
  const TemporalAnswer answer = a.engine->Answer(ds.temporal, q);

  // Result-set contract.
  EXPECT_TRUE(std::is_sorted(answer.nodes.begin(), answer.nodes.end()));
  for (NodeId v : answer.nodes) {
    EXPECT_NE(v, q.source);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, ds.temporal.num_nodes());
  }
  // Stats contract. CrashSim-T may stop early once the candidate set is
  // empty; the recompute-everything baselines always walk the interval.
  EXPECT_GE(answer.stats.snapshots_processed, 1);
  EXPECT_LE(answer.stats.snapshots_processed, 4);
  if (!answer.nodes.empty()) {
    EXPECT_EQ(answer.stats.snapshots_processed, 4);
  }
  EXPECT_GT(answer.stats.scores_computed, 0);

  // Determinism: a second engine with the same seed agrees exactly.
  EngineBundle b = MakeEngine(engine_name, 77);
  EXPECT_EQ(b.engine->Answer(ds.temporal, q).nodes, answer.nodes);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesByDatasetsByKinds, TemporalEngineGrid,
    testing::Combine(
        testing::Values("crashsim-t", "probesim-t", "sling-t", "reads-t"),
        testing::Values("as733", "wiki-vote", "hepth"),
        testing::Values(TemporalQueryKind::kThreshold,
                        TemporalQueryKind::kTrendIncreasing)),
    [](const testing::TestParamInfo<Params>& param_info) {
      std::string name = std::get<0>(param_info.param) + "_" +
                         std::get<1>(param_info.param) + "_" +
                         ToString(std::get<2>(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace crashsim
