// Statistical-guarantee tier (ctest label: tier2). Validates Theorem 1's
// (epsilon, delta) claim at population scale: hundreds of (source, candidate)
// pairs against power-method ground truth, with the violation budget derived
// from delta plus Chernoff-style slack — not the handful-of-pairs spot checks
// of the tier-1 suite. Also pins the observability side of the guarantee:
// the QueryStats trial counters must agree with the closed-form n_r of
// Lemma 3, and the achieved bound reported after a complete run must not
// exceed the requested epsilon.
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/crashsim.h"
#include "core/query_context.h"
#include "core/query_stats.h"
#include "graph/generators.h"
#include "simrank/power_method.h"
#include "simrank/walk.h"
#include "util/rng.h"

namespace crashsim {
namespace {

constexpr double kC = 0.6;
constexpr double kEpsilon = 0.1;
constexpr double kDelta = 0.1;

CrashSimOptions GuaranteeOptions(uint64_t seed) {
  CrashSimOptions opt;
  opt.mc.c = kC;
  opt.mc.epsilon = kEpsilon;
  opt.mc.delta = kDelta;
  opt.mc.trials_cap = 0;  // paper-exact n_r from Lemma 3, no shortcut
  opt.mc.seed = seed;
  opt.mode = RevReachMode::kCorrected;
  opt.diag_samples = 4000;
  // Run the guarantee population through the batched walk engine at 256
  // walks per tile and with candidate parallelism: batch_size and num_threads are
  // bit-identity knobs (tests/core/walk_batch_test.cc), so the statistical
  // claims proven here cover the batched production path, not a scalar
  // stand-in — and BatchSizesShareTheGuaranteeStreams below re-checks the
  // identity at this scale.
  opt.batch_size = 256;
  opt.num_threads = 4;
  return opt;
}

// Every node of g. Theorem 1 is a claim about the Monte-Carlo trials, which
// Partial over every node runs (SingleSource sweeps and samples nothing).
std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> all(static_cast<size_t>(g.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

TEST(CrashSimGuaranteeTest, BatchSizesShareTheGuaranteeStreams) {
  // Cheap differential at guarantee scale: the exact score vector of one
  // guarantee-sized query must be the same whether the walks run scalar or
  // 256 per tile. This is what entitles the suite to test Theorem 1 once
  // instead of once per batch size.
  Rng graph_rng(77);
  const Graph g = ErdosRenyi(40, 160, false, &graph_rng);
  CrashSimOptions scalar_opt = GuaranteeOptions(/*seed=*/555);
  scalar_opt.batch_size = 1;
  scalar_opt.num_threads = 1;
  CrashSim scalar(scalar_opt);
  CrashSim batched(GuaranteeOptions(/*seed=*/555));
  ASSERT_TRUE(scalar.Bind(&g).ok());
  ASSERT_TRUE(batched.Bind(&g).ok());
  EXPECT_EQ(scalar.Partial(13, AllNodes(g)),
            batched.Partial(13, AllNodes(g)));
}

TEST(CrashSimGuaranteeTest, EpsilonDeltaHoldsOverTwoHundredPairs) {
  Rng graph_rng(2024);
  const Graph g = ErdosRenyi(40, 160, false, &graph_rng);
  const SimRankMatrix truth = PowerMethodAllPairs(g, kC, 55);

  // 6 sources x 39 candidates = 234 pairs >= 200. Each source runs under a
  // fresh seed so the per-source trial streams are independent.
  const std::vector<NodeId> sources = {1, 7, 13, 22, 30, 38};
  int64_t checked = 0;
  int64_t violations = 0;
  for (size_t si = 0; si < sources.size(); ++si) {
    CrashSim algo(GuaranteeOptions(/*seed=*/1000 + si));
    ASSERT_TRUE(algo.Bind(&g).ok());
    const NodeId u = sources[si];
    const std::vector<double> scores = algo.Partial(u, AllNodes(g));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == u) continue;
      ++checked;
      if (std::abs(scores[static_cast<size_t>(v)] - truth.At(u, v)) >
          kEpsilon) {
        ++violations;
      }
    }
  }
  ASSERT_GE(checked, 200);

  // Theorem 1 bounds the per-pair failure probability by delta, so the
  // violation count is (stochastically below) Binomial(N, delta). Allow the
  // mean plus three standard deviations; pairs sharing a source are
  // positively correlated, which the wide slack absorbs (and the diagonal
  // estimator adds noise Lemma 3 does not model).
  const double n = static_cast<double>(checked);
  const double budget =
      n * kDelta + 3.0 * std::sqrt(n * kDelta * (1.0 - kDelta));
  EXPECT_LE(static_cast<double>(violations), budget)
      << violations << " of " << checked << " pairs outside epsilon";
}

TEST(CrashSimGuaranteeTest, StatsTrialBudgetMatchesLemmaThree) {
  Rng graph_rng(2024);
  const Graph g = ErdosRenyi(40, 160, false, &graph_rng);
  CrashSim algo(GuaranteeOptions(/*seed=*/55));
  ASSERT_TRUE(algo.Bind(&g).ok());

  QueryContext ctx;
  QueryStats qs;
  ctx.set_stats(&qs);
  const PartialResult result = algo.Partial(4, AllNodes(g), &ctx);
  ASSERT_TRUE(result.complete());

  // The planned and executed budgets both equal the closed-form n_r, and a
  // complete run's inverted bound cannot exceed the epsilon it was sized
  // for (the ceiling in n_r rounds the bound down, never up).
  const int64_t n_r =
      CrashSimTrialCount(kC, kEpsilon, kDelta, g.num_nodes());
  EXPECT_EQ(qs.trials_target, n_r);
  EXPECT_EQ(qs.trials_run, n_r);
  EXPECT_FALSE(qs.trials_truncated);
  EXPECT_LE(qs.epsilon_achieved, kEpsilon + 1e-12);
  EXPECT_EQ(qs.epsilon_achieved, result.epsilon_achieved);
  // One source tree, scored against every other node, with real walk work.
  EXPECT_EQ(qs.tree_builds, 1);
  EXPECT_EQ(qs.candidates_evaluated,
            static_cast<int64_t>(g.num_nodes()) - 1);
  EXPECT_EQ(qs.walks_sampled, n_r * (static_cast<int64_t>(g.num_nodes()) - 1));
  EXPECT_GT(qs.walk_steps, 0);
}

}  // namespace
}  // namespace crashsim
