#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/crashsim.h"
#include "graph/generators.h"
#include "simrank/power_method.h"

namespace crashsim {
namespace {

CrashSimOptions Options(int threads, int64_t trials = 2000,
                        uint64_t seed = 42) {
  CrashSimOptions opt;
  opt.mc.c = 0.6;
  opt.mc.trials_override = trials;
  opt.mc.seed = seed;
  opt.num_threads = threads;
  return opt;
}

// Every node of g: Partial over it runs the Monte-Carlo trials these tests
// are about (SingleSource sweeps instead; see SweepBitIdenticalAcrossThreads).
std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> all(static_cast<size_t>(g.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

TEST(CrashSimParallelTest, DeterministicAcrossRuns) {
  Rng rng(1);
  const Graph g = ErdosRenyi(120, 480, false, &rng);
  CrashSim a(Options(4));
  CrashSim b(Options(4));
  ASSERT_TRUE(a.Bind(&g).ok());
  ASSERT_TRUE(b.Bind(&g).ok());
  EXPECT_EQ(a.Partial(3, AllNodes(g)), b.Partial(3, AllNodes(g)));
}

TEST(CrashSimParallelTest, IndependentOfThreadCount) {
  // Per-candidate streams are derived from (seed, source, candidate), so
  // 2-thread and 8-thread runs must agree bit-for-bit.
  Rng rng(2);
  const Graph g = ErdosRenyi(100, 400, false, &rng);
  CrashSim two(Options(2));
  CrashSim eight(Options(8));
  ASSERT_TRUE(two.Bind(&g).ok());
  ASSERT_TRUE(eight.Bind(&g).ok());
  EXPECT_EQ(two.Partial(7, AllNodes(g)), eight.Partial(7, AllNodes(g)));
}

TEST(CrashSimParallelTest, ThreadCountSweepIsBitIdenticalBothPaths) {
  // num_threads is a worker cap, not part of the random stream: the legacy
  // parallel path and the ctx-aware path must both return bit-identical
  // scores across num_threads in {2, 8} (and the ctx path also at 1, whose
  // per-candidate streams make sequential == parallel).
  Rng rng(13);
  const Graph g = ErdosRenyi(110, 440, false, &rng);
  std::vector<std::vector<double>> legacy;
  std::vector<std::vector<double>> anytime;
  for (int threads : {1, 2, 8}) {
    CrashSim algo(Options(threads, 1500, 77));
    ASSERT_TRUE(algo.Bind(&g).ok());
    if (threads > 1) legacy.push_back(algo.Partial(4, AllNodes(g)));
    const PartialResult r = algo.Partial(4, AllNodes(g), nullptr);
    ASSERT_TRUE(r.complete());
    anytime.push_back(r.scores);
  }
  ASSERT_EQ(legacy.size(), 2u);
  EXPECT_EQ(legacy[0], legacy[1]);
  EXPECT_EQ(anytime[0], anytime[1]);
  EXPECT_EQ(anytime[0], anytime[2]);
}

TEST(CrashSimParallelTest, EstimateDiagonalBitIdenticalAcrossThreadCounts) {
  // Every d(w) is a pure function of (graph, options, w): splitting the
  // nodes over 2 or 4 threads, or estimating again, changes no bit. 2000
  // nodes is several ParallelFor chunks at each thread count.
  Rng rng(21);
  const Graph g = BarabasiAlbert(2000, 4, /*undirected=*/false, &rng);
  std::vector<std::vector<double>> runs;
  for (int threads : {1, 2, 4, 1, 4}) {
    CrashSimOptions opt = Options(threads);
    opt.mode = RevReachMode::kCorrected;
    const SharedDiagonal diag = CrashSim(opt).EstimateDiagonal(g);
    ASSERT_NE(diag, nullptr);
    runs.push_back(*diag);
  }
  ASSERT_EQ(runs[0].size(), 2000u);
  for (size_t i = 1; i < runs.size(); ++i) EXPECT_EQ(runs[i], runs[0]) << i;
}

TEST(CrashSimParallelTest, MatchesSequentialStatistically) {
  const Graph g = PaperExampleGraph();
  const SimRankMatrix truth = PowerMethodAllPairs(g, 0.6, 55);
  CrashSimOptions opt = Options(4, 20000);
  opt.mode = RevReachMode::kCorrected;
  opt.diag_samples = 2000;
  CrashSim parallel(opt);
  ASSERT_TRUE(parallel.Bind(&g).ok());
  const auto scores = parallel.Partial(0, AllNodes(g));
  for (NodeId v = 1; v < 8; ++v) {
    EXPECT_NEAR(scores[static_cast<size_t>(v)], truth.At(0, v), 0.05)
        << "node " << static_cast<int>(v);
  }
}

TEST(CrashSimParallelTest, PartialSubsetAgreesWithFullRun) {
  // In parallel mode a candidate's stream does not depend on which other
  // candidates are in the batch, so Partial results embed into a Partial run
  // over every node exactly.
  Rng rng(3);
  const Graph g = ErdosRenyi(80, 320, false, &rng);
  CrashSim algo(Options(4));
  ASSERT_TRUE(algo.Bind(&g).ok());
  const auto all = algo.Partial(5, AllNodes(g));
  const std::vector<NodeId> cands{1, 9, 33, 60};
  CrashSim algo2(Options(4));
  ASSERT_TRUE(algo2.Bind(&g).ok());
  const auto partial = algo2.Partial(5, cands);
  for (size_t i = 0; i < cands.size(); ++i) {
    EXPECT_DOUBLE_EQ(partial[i], all[static_cast<size_t>(cands[i])]);
  }
}

TEST(CrashSimParallelTest, CorrectedModeCombinesWithThreads) {
  // Diagonal corrections plus parallel candidate evaluation: accuracy and
  // thread-count invariance must both survive the combination.
  Rng rng(9);
  const Graph g = ErdosRenyi(60, 240, false, &rng);
  const SimRankMatrix truth = PowerMethodAllPairs(g, 0.6, 55);
  CrashSimOptions opt = Options(12000);
  opt.mode = RevReachMode::kCorrected;
  opt.diag_samples = 1500;
  opt.num_threads = 4;
  CrashSim four(opt);
  opt.num_threads = 2;
  CrashSim two(opt);
  ASSERT_TRUE(four.Bind(&g).ok());
  ASSERT_TRUE(two.Bind(&g).ok());
  const auto a = four.Partial(8, AllNodes(g));
  EXPECT_EQ(a, two.Partial(8, AllNodes(g)));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == 8) continue;
    EXPECT_NEAR(a[static_cast<size_t>(v)], truth.At(8, v), 0.06)
        << "node " << v;
  }
}

TEST(CrashSimParallelTest, SelfScoreStillOne) {
  Rng rng(4);
  const Graph g = ErdosRenyi(50, 200, false, &rng);
  CrashSim algo(Options(4, 200));
  ASSERT_TRUE(algo.Bind(&g).ok());
  EXPECT_DOUBLE_EQ(algo.Partial(11, AllNodes(g))[11], 1.0);
  EXPECT_DOUBLE_EQ(algo.SingleSource(11)[11], 1.0);
}

TEST(CrashSimParallelTest, SweepBitIdenticalAcrossThreads) {
  // The sweep sums each node's in-list in CSR order, so splitting the nodes
  // over 4 threads changes no bit, in either mode. 5000 nodes is several
  // ParallelFor chunks per level.
  Rng rng(31);
  const Graph g = BarabasiAlbert(5000, 4, /*undirected=*/false, &rng);
  for (RevReachMode mode : {RevReachMode::kPaper, RevReachMode::kCorrected}) {
    std::vector<std::vector<double>> runs;
    for (int threads : {1, 4}) {
      CrashSimOptions opt = Options(threads);
      opt.mode = mode;
      CrashSim algo(opt);
      ASSERT_TRUE(algo.Bind(&g).ok());
      const PartialResult r = algo.SingleSource(17, nullptr);
      ASSERT_TRUE(r.complete());
      EXPECT_EQ(r.trials_done, 0);
      runs.push_back(r.scores);
    }
    EXPECT_EQ(runs[0], runs[1]);
  }
}

}  // namespace
}  // namespace crashsim
