#include "simrank/walk.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace crashsim {
namespace {

TEST(SampleWalkTest, StartsAtSource) {
  const Graph g = CycleGraph(5, false);
  Rng rng(1);
  std::vector<NodeId> walk;
  SampleSqrtCWalk(g, 2, std::sqrt(0.6), 10, &rng, &walk);
  ASSERT_GE(walk.size(), 1u);
  EXPECT_EQ(walk[0], 2);
}

TEST(SampleWalkTest, RespectsMaxLength) {
  const Graph g = CycleGraph(5, false);
  Rng rng(2);
  std::vector<NodeId> walk;
  for (int i = 0; i < 1000; ++i) {
    const int len = SampleSqrtCWalk(g, 0, 0.999, 7, &rng, &walk);
    EXPECT_LE(len, 7);
    EXPECT_EQ(len, static_cast<int>(walk.size()));
  }
}

TEST(SampleWalkTest, StepsFollowInNeighbors) {
  const Graph g = PaperExampleGraph();
  Rng rng(3);
  std::vector<NodeId> walk;
  for (int i = 0; i < 500; ++i) {
    SampleSqrtCWalk(g, 0, std::sqrt(0.6), 35, &rng, &walk);
    for (size_t j = 1; j < walk.size(); ++j) {
      const auto in = g.InNeighbors(walk[j - 1]);
      EXPECT_TRUE(std::find(in.begin(), in.end(), walk[j]) != in.end())
          << "step " << j;
    }
  }
}

TEST(SampleWalkTest, DeadEndStopsWalk) {
  // 0 has no in-neighbours.
  const Graph g = BuildGraph(2, {{0, 1}});
  Rng rng(4);
  std::vector<NodeId> walk;
  EXPECT_EQ(SampleSqrtCWalk(g, 0, 0.99, 10, &rng, &walk), 1);
}

TEST(SampleWalkTest, LengthDistributionIsGeometric) {
  // On a cycle every node has one in-neighbour, so length is purely the
  // stopping rule: E[len] = 1/(1 - sqrt c) when uncapped.
  const Graph g = CycleGraph(3, false);
  const double sqrt_c = std::sqrt(0.6);
  Rng rng(5);
  std::vector<NodeId> walk;
  double sum = 0.0;
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    sum += SampleSqrtCWalk(g, 0, sqrt_c, 1000, &rng, &walk);
  }
  EXPECT_NEAR(sum / kN, 1.0 / (1.0 - sqrt_c), 0.05);
}

TEST(LMaxTest, MatchesClosedFormAtPaperParameters) {
  // c = 0.6: (1 + 0.7746)/(1 - 0.7746)^2 = 34.93... -> 35.
  EXPECT_EQ(CrashSimLMax(0.6), 35);
  // c = 0.25 (the worked example): (1.5)/(0.25) = 6.
  EXPECT_EQ(CrashSimLMax(0.25), 6);
  // c = 0.8: (1.8944)/(0.011146) -> 170.
  const double sq = std::sqrt(0.8);
  const int expected =
      static_cast<int>(std::ceil((1 + sq) / ((1 - sq) * (1 - sq))));
  EXPECT_EQ(CrashSimLMax(0.8), expected);
}

TEST(TruncationTest, MassPlusErrorIsOne) {
  for (double c : {0.25, 0.6, 0.8}) {
    const int l = CrashSimLMax(c);
    EXPECT_NEAR(CrashSimTruncationMass(c, l) + CrashSimTruncationError(c, l),
                1.0, 1e-12);
    EXPECT_GT(CrashSimTruncationMass(c, l), 0.98);
  }
}

TEST(TrialCountTest, FormulasAndMonotonicity) {
  // CrashSim needs slightly more trials than ProbeSim at equal epsilon
  // (denominator epsilon - p*eps_t < epsilon), by a constant factor.
  const int64_t crash = CrashSimTrialCount(0.6, 0.025, 0.01, 10000);
  const int64_t probe = ProbeSimTrialCount(0.6, 0.025, 0.01, 10000);
  EXPECT_GT(crash, probe);
  EXPECT_LT(crash, probe * 2);
  // Tighter epsilon means more trials.
  EXPECT_GT(CrashSimTrialCount(0.6, 0.0125, 0.01, 10000),
            CrashSimTrialCount(0.6, 0.025, 0.01, 10000));
  // Bigger graphs need more trials (log n).
  EXPECT_GT(CrashSimTrialCount(0.6, 0.025, 0.01, 100000),
            CrashSimTrialCount(0.6, 0.025, 0.01, 100));
}

TEST(TrialCountTest, ProbeSimClosedForm) {
  // n_r' = 3c/eps^2 * log(n/delta).
  const double expected = 3.0 * 0.6 / (0.05 * 0.05) * std::log(1000 / 0.1);
  EXPECT_EQ(ProbeSimTrialCount(0.6, 0.05, 0.1, 1000),
            static_cast<int64_t>(std::ceil(expected)));
}

TEST(DiagonalCorrectionTest, RangeAndDeadEnds) {
  const Graph g = PaperExampleGraph();
  const auto d = EstimateDiagonalCorrections(g, 0.6, 200, 36, /*seed=*/6,
                                             /*max_threads=*/1);
  ASSERT_EQ(d.size(), 8u);
  for (double x : d) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(DiagonalCorrectionTest, IsolatedNodeIsOne) {
  // Node 2 has no in-edges: walks stop instantly, never meet again.
  const Graph g = BuildGraph(3, {{2, 0}, {0, 1}});
  const auto d = EstimateDiagonalCorrections(g, 0.6, 100, 20, /*seed=*/7,
                                             /*max_threads=*/1);
  EXPECT_DOUBLE_EQ(d[2], 1.0);
}

TEST(DiagonalCorrectionTest, SingleInNeighbourForcesMeeting) {
  // On a directed cycle both walks always step to the same in-neighbour, so
  // they re-meet whenever both survive one step: d = Pr[at least one stops]
  // = 1 - c.
  const Graph g = CycleGraph(4, false);
  const auto d = EstimateDiagonalCorrections(g, 0.6, 20000, 64, /*seed=*/8,
                                             /*max_threads=*/1);
  EXPECT_NEAR(d[0], 1.0 - 0.6, 0.02);
}


// The estimator as it stood before the per-pair stream: two whole
// sqrt(c)-walks from one sequential Rng, then a search for a meeting.
std::vector<double> TwoWalkDiagonal(const Graph& g, double c, int samples,
                                    int max_len, Rng* rng) {
  const double sqrt_c = std::sqrt(c);
  std::vector<double> d(static_cast<size_t>(g.num_nodes()), 1.0);
  std::vector<NodeId> wa;
  std::vector<NodeId> wb;
  for (NodeId w = 0; w < g.num_nodes(); ++w) {
    if (g.InDegree(w) == 0) continue;
    int never_met = 0;
    for (int s = 0; s < samples; ++s) {
      SampleSqrtCWalk(g, w, sqrt_c, max_len, rng, &wa);
      SampleSqrtCWalk(g, w, sqrt_c, max_len, rng, &wb);
      const size_t steps = std::min(wa.size(), wb.size());
      bool met = false;
      for (size_t t = 1; t < steps && !met; ++t) met = wa[t] == wb[t];
      if (!met) ++never_met;
    }
    d[static_cast<size_t>(w)] =
        static_cast<double>(never_met) / static_cast<double>(samples);
  }
  return d;
}

TEST(DiagonalCorrectionTest, MatchesTwoWalkEstimatorWithinFourStandardErrors) {
  // The shared step budget, the dead-end stop and the early exit at the
  // first meeting change the draws, not the per-pair distribution: on
  // every node both estimates agree within 4 standard errors of their
  // difference. The graphs cover a meeting-heavy example, a star whose
  // leaves point at the hub (a pair from the hub stops at a dead end one
  // step later unless it met there), and a cycle with chords (in-degrees 1
  // and 2).
  constexpr int kSamples = 20000;
  constexpr double kC = 0.6;
  constexpr int kMaxLen = 36;
  const Graph chorded =
      BuildGraph(8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7},
                     {7, 0}, {0, 4}, {2, 6}, {5, 1}, {7, 3}});
  std::vector<Edge> spokes;
  for (NodeId leaf = 1; leaf < 9; ++leaf) spokes.push_back({leaf, 0});
  const std::pair<const char*, Graph> graphs[] = {
      {"paper_example", PaperExampleGraph()},
      {"star", BuildGraph(9, spokes)},
      {"cycle_with_chords", chorded},
  };
  for (const auto& [name, g] : graphs) {
    Rng rng(11);
    const auto old = TwoWalkDiagonal(g, kC, kSamples, kMaxLen, &rng);
    const auto now = EstimateDiagonalCorrections(g, kC, kSamples, kMaxLen,
                                                 /*seed=*/11,
                                                 /*max_threads=*/1);
    ASSERT_EQ(now.size(), old.size()) << name;
    for (size_t w = 0; w < now.size(); ++w) {
      const double var =
          (old[w] * (1.0 - old[w]) + now[w] * (1.0 - now[w])) / kSamples;
      EXPECT_LE(std::abs(now[w] - old[w]), 4.0 * std::sqrt(var))
          << name << " node " << w << ": " << now[w] << " vs " << old[w];
    }
  }
}

}  // namespace
}  // namespace crashsim
