// CrashSim's sweep (CrashSim::SweepWithTree): the deterministic evaluation
// of the walk estimator's expectation that answers full single-source
// queries. It must agree with the walks it replaces (within their
// confidence interval), with a brute-force evaluation of the same formula,
// and with the power method within the bound derived in ALGORITHMS.md.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/crashsim.h"
#include "core/query_context.h"
#include "core/query_stats.h"
#include "datasets/datasets.h"
#include "graph/generators.h"
#include "simrank/power_method.h"
#include "simrank/walk.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace crashsim {
namespace {

constexpr double kC = 0.6;

CrashSimOptions Options(RevReachMode mode, int64_t trials = 100) {
  CrashSimOptions opt;
  opt.mc.c = kC;
  opt.mc.trials_override = trials;
  opt.mc.seed = 8;
  opt.mode = mode;
  return opt;
}

std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> all(static_cast<size_t>(g.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

// d(w) as the engine scores it: its diagonal, or 1 in paper mode.
double Weight(const CrashSim& algo, NodeId w) {
  const std::vector<double>& d = algo.diagonal();
  return d.empty() ? 1.0 : d[static_cast<size_t>(w)];
}

// The sweep lies inside the Hoeffding interval of 10^5 walk trials over the
// same tree and d(w), in both modes. One trial's score is a sum of at most
// one U(l, w) * d(w) per level, so it lies in [0, R] with
// R = sum_l max_w U(l, w) d(w); a union bound over the candidates gives the
// interval half-width R * sqrt(ln(2n / delta) / (2 N)).
TEST(CrashSimSweepTest, WithinMonteCarloConfidenceInterval) {
  Rng rng(3);
  const Graph g = ErdosRenyi(40, 160, /*undirected=*/false, &rng);
  constexpr int64_t kTrials = 100000;
  constexpr double kDelta = 1e-6;
  for (RevReachMode mode : {RevReachMode::kPaper, RevReachMode::kCorrected}) {
    SCOPED_TRACE(mode == RevReachMode::kPaper ? "paper" : "corrected");
    CrashSim algo(Options(mode, kTrials));
    ASSERT_TRUE(algo.Bind(&g).ok());
    for (NodeId u : {NodeId{0}, NodeId{17}}) {
      const ReverseReachableTree tree = algo.BuildTree(u);
      double range = 0.0;
      for (int l = 1; l <= tree.max_level(); ++l) {
        double top = 0.0;
        for (const auto& [w, prob] : tree.LevelEntries(l)) {
          top = std::max(top, static_cast<double>(prob) * Weight(algo, w));
        }
        range += top;
      }
      ASSERT_GT(range, 0.0);
      const double half_width =
          range * std::sqrt(std::log(2.0 * g.num_nodes() / kDelta) /
                            (2.0 * static_cast<double>(kTrials)));
      const PartialResult walks = algo.PartialWithTree(tree, AllNodes(g),
                                                       nullptr);
      const PartialResult sweep = algo.SweepWithTree(tree, nullptr);
      ASSERT_TRUE(walks.complete());
      ASSERT_TRUE(sweep.complete());
      ASSERT_EQ(sweep.scores.size(), walks.scores.size());
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        EXPECT_NEAR(sweep.scores[static_cast<size_t>(v)],
                    walks.scores[static_cast<size_t>(v)], half_width)
            << "source " << u << " node " << v;
      }
    }
  }
}

// The sweep against a brute-force evaluation of the same formula,
//   s(u, v) = sum_{l=1..l_max} (sqrt c)^l sum_w P^l[v, w] U(l, w) d(w),
// with P^l[v, .] propagated forward level by level from v alone.
TEST(CrashSimSweepTest, EqualsTheEstimatorExpectationByBruteForce) {
  Rng rng(5);
  // Directed, so some nodes have no in-neighbours and stop every walk.
  const Graph g = ErdosRenyi(30, 70, /*undirected=*/false, &rng);
  const size_t n = static_cast<size_t>(g.num_nodes());
  for (RevReachMode mode : {RevReachMode::kPaper, RevReachMode::kCorrected}) {
    CrashSim algo(Options(mode));
    ASSERT_TRUE(algo.Bind(&g).ok());
    const NodeId u = 2;
    const ReverseReachableTree tree = algo.BuildTree(u);
    const PartialResult sweep = algo.SweepWithTree(tree, nullptr);
    ASSERT_TRUE(sweep.complete());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      std::vector<double> at(n, 0.0);  // Pr[walk from v stands at w, step l]
      at[static_cast<size_t>(v)] = 1.0;
      double expected = 0.0;
      for (int l = 1; l <= tree.max_level(); ++l) {
        std::vector<double> next(n, 0.0);
        for (NodeId x = 0; x < g.num_nodes(); ++x) {
          const auto in = g.InNeighbors(x);
          for (NodeId w : in) {
            next[static_cast<size_t>(w)] +=
                at[static_cast<size_t>(x)] / static_cast<double>(in.size());
          }
        }
        at.swap(next);
        double level = 0.0;
        for (NodeId w = 0; w < g.num_nodes(); ++w) {
          level += at[static_cast<size_t>(w)] * tree.Probability(l, w) *
                   Weight(algo, w);
        }
        expected += std::pow(std::sqrt(kC), l) * level;
      }
      if (v == u) expected = 1.0;
      if (g.InDegree(v) == 0 && v != u) {
        EXPECT_EQ(sweep.scores[static_cast<size_t>(v)], 0.0) << v;
      }
      EXPECT_NEAR(sweep.scores[static_cast<size_t>(v)], expected, 1e-12)
          << "node " << v;
    }
  }
}

// ALGORITHMS.md ("The sweep") bounds |sweep - SimRank| in corrected mode by
//   p * eps_t                                      (truncation)
// + theta * n * sqrt(c) / ((1 - c)(1 - sqrt c))      (tree pruning)
// + c / (1 - c) * max_w |d_hat(w) - d(w)|            (d(w) taken as fixed).
// d_hat(w) is a mean of D Bernoulli samples, so with probability 1 - delta
// every |d_hat(w) - d(w)| <= sqrt(ln(2n / delta) / (2 D)). The power method
// is the truth; 1e-5 absorbs its float matrix and the tree's float cells.
TEST(CrashSimSweepTest, WithinDerivedBoundOfPowerMethodOnEveryStandIn) {
  constexpr int kDiagSamples = 20000;
  constexpr double kDelta = 1e-6;
  for (const std::string& name : DatasetNames()) {
    SCOPED_TRACE(name);
    const Dataset ds = MakeDataset(name, 0.01, /*snapshots_override=*/4);
    const Graph& g = ds.static_graph;
    const double n = static_cast<double>(g.num_nodes());
    const SimRankMatrix truth = PowerMethodAllPairs(g, kC, 55);
    CrashSimOptions opt = Options(RevReachMode::kCorrected);
    opt.diag_samples = kDiagSamples;
    opt.num_threads = 4;
    CrashSim algo(opt);
    ASSERT_TRUE(algo.Bind(&g).ok());
    const double sqrt_c = std::sqrt(kC);
    const double bound =
        CrashSimTruncationBound(kC, algo.LMax()) +
        opt.tree_prune_threshold * n * sqrt_c / ((1.0 - kC) * (1.0 - sqrt_c)) +
        kC / (1.0 - kC) *
            std::sqrt(std::log(2.0 * n / kDelta) / (2.0 * kDiagSamples)) +
        1e-5;
    double worst = 0.0;
    const NodeId stride = std::max<NodeId>(1, g.num_nodes() / 5);
    for (NodeId u = 0; u < g.num_nodes(); u += stride) {
      const PartialResult r = algo.SingleSource(u, nullptr);
      ASSERT_TRUE(r.complete());
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        worst = std::max(
            worst, std::abs(r.scores[static_cast<size_t>(v)] - truth.At(u, v)));
      }
    }
    EXPECT_LE(worst, bound) << "n=" << g.num_nodes();
  }
}

// A sweep runs no trials: the answer and the sink say so, and the bound is
// the truncation term alone.
TEST(CrashSimSweepTest, ReportsNoTrialsAndTheTruncationBound) {
  Rng rng(7);
  const Graph g = ErdosRenyi(120, 500, /*undirected=*/false, &rng);
  CrashSim algo(Options(RevReachMode::kCorrected));
  ASSERT_TRUE(algo.Bind(&g).ok());
  QueryContext ctx(std::chrono::hours(1));
  QueryStats qs;
  ctx.set_stats(&qs);
  const PartialResult r = algo.SingleSource(9, &ctx);
  ASSERT_TRUE(r.complete());
  ASSERT_EQ(r.scores.size(), static_cast<size_t>(g.num_nodes()));
  EXPECT_EQ(r.scores[9], 1.0);
  EXPECT_EQ(r.trials_done, 0);
  EXPECT_EQ(r.trials_target, 0);
  EXPECT_EQ(r.epsilon_achieved, CrashSimTruncationBound(kC, algo.LMax()));
  EXPECT_EQ(qs.epsilon_achieved, r.epsilon_achieved);
  EXPECT_EQ(qs.trials_target, 0);
  EXPECT_EQ(qs.trials_run, 0);
  EXPECT_FALSE(qs.trials_truncated);
  EXPECT_EQ(qs.walks_sampled, 0);
  EXPECT_EQ(qs.walk_steps, 0);
  EXPECT_EQ(qs.tree_builds, 1);
  EXPECT_EQ(qs.candidates_evaluated, g.num_nodes() - 1);
  EXPECT_GT(qs.tree_entries, 0);
  EXPECT_TRUE(qs.had_deadline);
  EXPECT_GT(qs.deadline_slack_seconds, 0.0);
}

// The context is checked once per level. A cut sweep answers its status
// and no scores, whether the cut lands in the tree build or in the sweep;
// so does a fault at the sweep's failpoint.
TEST(CrashSimSweepTest, CutOrFaultedSweepAnswersNoScores) {
  Rng rng(11);
  const Graph g = ErdosRenyi(100, 400, /*undirected=*/false, &rng);
  CrashSim algo(Options(RevReachMode::kPaper));
  ASSERT_TRUE(algo.Bind(&g).ok());
  const ReverseReachableTree tree = algo.BuildTree(4);

  QueryContext expired(std::chrono::milliseconds(0));
  const PartialResult cut = algo.SweepWithTree(tree, &expired);
  EXPECT_EQ(cut.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(cut.scores.empty());
  const PartialResult cut_build = algo.SingleSource(4, &expired);
  EXPECT_EQ(cut_build.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(cut_build.scores.empty());

  QueryContext cancelled;
  cancelled.Cancel();
  const PartialResult stopped = algo.SweepWithTree(tree, &cancelled);
  EXPECT_EQ(stopped.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(stopped.scores.empty());

  {
    FailpointScope failpoints(1);
    FailpointSpec spec;
    spec.code = StatusCode::kUnavailable;
    ASSERT_TRUE(ConfigureFailpoint("crashsim.sweep_level", spec).ok());
    const PartialResult faulted = algo.SweepWithTree(tree, nullptr);
    EXPECT_EQ(faulted.status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(faulted.scores.empty());
  }
  EXPECT_TRUE(algo.SweepWithTree(tree, nullptr).complete());
}

// Degradation shortens Monte-Carlo queries only: the sweep ignores the
// trial fraction and answers the same bits.
TEST(CrashSimSweepTest, TrialFractionLeavesTheSweepUnchanged) {
  Rng rng(13);
  const Graph g = ErdosRenyi(80, 320, /*undirected=*/false, &rng);
  CrashSim algo(Options(RevReachMode::kCorrected));
  ASSERT_TRUE(algo.Bind(&g).ok());
  QueryContext degraded;
  degraded.set_trial_fraction(0.25);
  EXPECT_EQ(algo.SingleSource(3, &degraded).scores, algo.SingleSource(3));
}

}  // namespace
}  // namespace crashsim
