// End-to-end pipelines: generated dataset stand-ins -> every algorithm ->
// metrics, exactly as the benchmark harnesses run them (scaled down).
#include <memory>

#include <gtest/gtest.h>

#include "core/baseline_temporal.h"
#include "core/crashsim.h"
#include "core/crashsim_t.h"
#include "datasets/datasets.h"
#include "eval/metrics.h"
#include "simrank/power_method.h"
#include "simrank/probesim.h"
#include "simrank/reads.h"
#include "simrank/sling.h"

namespace crashsim {
namespace {

TEST(EndToEndStaticTest, AllAlgorithmsOnDatasetStandIn) {
  const Dataset ds = MakeDataset("hepth", 0.015, 5);  // ~150 nodes
  const Graph& g = ds.static_graph;
  PowerMethod gt(0.6, 55);
  ASSERT_TRUE(gt.Bind(&g).ok());

  SimRankOptions mc;
  mc.c = 0.6;
  mc.trials_override = 6000;
  mc.seed = 17;

  CrashSimOptions copt;
  copt.mc = mc;
  copt.mode = RevReachMode::kCorrected;
  copt.diag_samples = 800;
  CrashSim crash(copt);
  ProbeSim probe(mc);
  Sling sling(mc);
  ReadsOptions ro;
  ro.r = 800;
  ro.seed = 17;
  Reads reads(ro);

  const NodeId u = static_cast<NodeId>(g.num_nodes() / 2);
  const std::vector<double> truth = gt.matrix().Row(u);

  struct Case {
    SimRankAlgorithm* algo;
    double budget;
  };
  for (const Case& c : {Case{&crash, 0.08}, Case{&probe, 0.08},
                        Case{&sling, 0.08}, Case{&reads, 0.15}}) {
    ASSERT_TRUE(c.algo->Bind(&g).ok());
    const auto scores = c.algo->SingleSource(u);
    const double me = MaxError(scores, truth, u);
    EXPECT_LE(me, c.budget) << c.algo->name();
    // A coarse ranking signal must survive: top-10 precision over 0.4.
    EXPECT_GE(TopKPrecision(scores, truth, u, 10), 0.4) << c.algo->name();
  }
}

TEST(EndToEndTemporalTest, ThresholdPrecisionAgainstExactEngine) {
  const Dataset ds = MakeDataset("as733", 0.02, 5);  // ~130 nodes, 5 snaps
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = static_cast<NodeId>(ds.temporal.num_nodes() / 3);
  q.begin_snapshot = 0;
  q.end_snapshot = 4;
  q.theta = 0.1;

  PowerMethod power_method(0.6, 55);
  StaticRecomputeEngine exact(&power_method);
  const TemporalAnswer truth = exact.Answer(ds.temporal, q);

  CrashSimTOptions ct;
  ct.crashsim.mc.trials_override = 6000;
  ct.crashsim.mc.seed = 23;
  ct.crashsim.mode = RevReachMode::kCorrected;
  ct.crashsim.diag_samples = 800;
  CrashSimT crashsim_t(ct);
  const TemporalAnswer mine = crashsim_t.Answer(ds.temporal, q);

  const double precision = SetPrecision(truth.nodes, mine.nodes);
  EXPECT_GE(precision, 0.7) << "truth=" << truth.nodes.size()
                            << " mine=" << mine.nodes.size();
}

TEST(EndToEndTemporalTest, AllEnginesProduceOverlappingAnswers) {
  const Dataset ds = MakeDataset("wiki-vote", 0.01, 4);
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 5;
  q.begin_snapshot = 0;
  q.end_snapshot = 3;
  q.theta = 0.05;

  PowerMethod power_method(0.6, 55);
  StaticRecomputeEngine exact(&power_method);
  const TemporalAnswer truth = exact.Answer(ds.temporal, q);

  SimRankOptions mc;
  mc.trials_override = 4000;
  mc.seed = 29;
  ProbeSim probe(mc);
  StaticRecomputeEngine probe_t(&probe);
  Sling sling(mc);
  StaticRecomputeEngine sling_t(&sling);
  ReadsOptions ro;
  ro.r = 500;
  ro.seed = 29;
  Reads reads(ro);
  StaticRecomputeEngine reads_t(&reads);
  CrashSimTOptions ct;
  ct.crashsim.mc = mc;
  ct.crashsim.mode = RevReachMode::kCorrected;
  ct.crashsim.diag_samples = 500;
  CrashSimT crash_t(ct);

  std::vector<TemporalEngine*> engines{&probe_t, &sling_t, &reads_t, &crash_t};
  for (TemporalEngine* engine : engines) {
    const TemporalAnswer answer = engine->Answer(ds.temporal, q);
    const double precision = SetPrecision(truth.nodes, answer.nodes);
    EXPECT_GE(precision, 0.3) << engine->name() << " truth="
                              << truth.nodes.size() << " got="
                              << answer.nodes.size();
  }
}

TEST(EndToEndTemporalTest, CrashSimTFasterPathComputesFewerScores) {
  // On a low-churn dataset the pruning rules must pay off in raw score
  // computations relative to the recompute-everything baseline count.
  const Dataset ds = MakeDataset("hepth", 0.012, 6);
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 3;
  q.begin_snapshot = 0;
  q.end_snapshot = 5;
  q.theta = 0.02;

  CrashSimTOptions ct;
  ct.crashsim.mc.trials_override = 1500;
  CrashSimT engine(ct);
  const TemporalAnswer answer = engine.Answer(ds.temporal, q);
  const int64_t baseline_scores =
      static_cast<int64_t>(ds.temporal.num_nodes() - 1) * 6;
  EXPECT_LT(answer.stats.scores_computed, baseline_scores);
}

}  // namespace
}  // namespace crashsim
