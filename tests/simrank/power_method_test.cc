#include "simrank/power_method.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "util/rng.h"

namespace crashsim {
namespace {

// Naive reference: the textbook Jeh & Widom recurrence evaluated pairwise.
std::vector<std::vector<double>> NaiveSimRank(const Graph& g, double c,
                                              int iterations) {
  const NodeId n = g.num_nodes();
  std::vector<std::vector<double>> s(n, std::vector<double>(n, 0.0));
  for (NodeId v = 0; v < n; ++v) s[v][v] = 1.0;
  for (int it = 0; it < iterations; ++it) {
    std::vector<std::vector<double>> next(n, std::vector<double>(n, 0.0));
    for (NodeId u = 0; u < n; ++u) {
      next[u][u] = 1.0;
      for (NodeId v = 0; v < n; ++v) {
        if (u == v) continue;
        const auto iu = g.InNeighbors(u);
        const auto iv = g.InNeighbors(v);
        if (iu.empty() || iv.empty()) continue;
        double acc = 0.0;
        for (NodeId x : iu) {
          for (NodeId y : iv) acc += s[x][y];
        }
        next[u][v] = c * acc / (static_cast<double>(iu.size()) *
                                static_cast<double>(iv.size()));
      }
    }
    s.swap(next);
  }
  return s;
}

TEST(PowerMethodTest, MatchesNaiveReferenceOnExampleGraph) {
  const Graph g = PaperExampleGraph();
  const SimRankMatrix fast = PowerMethodAllPairs(g, 0.25, 20);
  const auto naive = NaiveSimRank(g, 0.25, 20);
  for (NodeId u = 0; u < 8; ++u) {
    for (NodeId v = 0; v < 8; ++v) {
      EXPECT_NEAR(fast.At(u, v), naive[u][v], 1e-5) << u << "," << v;
    }
  }
}

TEST(PowerMethodTest, MatchesNaiveReferenceOnRandomGraph) {
  Rng rng(11);
  const Graph g = ErdosRenyi(25, 80, false, &rng);
  const SimRankMatrix fast = PowerMethodAllPairs(g, 0.6, 15);
  const auto naive = NaiveSimRank(g, 0.6, 15);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_NEAR(fast.At(u, v), naive[u][v], 1e-4) << u << "," << v;
    }
  }
}

TEST(PowerMethodTest, DiagonalIsOne) {
  const Graph g = PaperExampleGraph();
  const SimRankMatrix s = PowerMethodAllPairs(g, 0.6, 30);
  for (NodeId v = 0; v < 8; ++v) EXPECT_DOUBLE_EQ(s.At(v, v), 1.0);
}

TEST(PowerMethodTest, SymmetricAndBounded) {
  Rng rng(12);
  const Graph g = ErdosRenyi(40, 160, false, &rng);
  const SimRankMatrix s = PowerMethodAllPairs(g, 0.6, 30);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_NEAR(s.At(u, v), s.At(v, u), 1e-5);
      EXPECT_GE(s.At(u, v), 0.0);
      EXPECT_LE(s.At(u, v), 1.0 + 1e-6);
    }
  }
}

TEST(PowerMethodTest, StarGraphClosedForm) {
  // Undirected star: leaf-leaf similarity is exactly c, hub-leaf is 0.
  const Graph g = StarGraph(6, /*undirected=*/true);
  const SimRankMatrix s = PowerMethodAllPairs(g, 0.6, 40);
  EXPECT_NEAR(s.At(1, 2), 0.6, 1e-6);
  EXPECT_NEAR(s.At(3, 5), 0.6, 1e-6);
  EXPECT_NEAR(s.At(0, 1), 0.0, 1e-6);
}

TEST(PowerMethodTest, CompleteGraphClosedForm) {
  // K_n: s = c(n-2) / ((n-1)^2 - c((n-1)^2 - (n-2))); n=4, c=0.6 -> 0.25.
  const Graph g = CompleteGraph(4, /*undirected=*/true);
  const SimRankMatrix s = PowerMethodAllPairs(g, 0.6, 60);
  EXPECT_NEAR(s.At(0, 1), 0.25, 1e-5);
  EXPECT_NEAR(s.At(2, 3), 0.25, 1e-5);
}

TEST(PowerMethodTest, MutualEdgePairIsZero) {
  // 0 <-> 1: s(0,1) = c * s(1,0) has the unique fixed point 0.
  const Graph g = BuildGraph(2, {{0, 1}, {1, 0}});
  const SimRankMatrix s = PowerMethodAllPairs(g, 0.8, 50);
  EXPECT_NEAR(s.At(0, 1), 0.0, 1e-9);
}

TEST(PowerMethodTest, DeadEndNodesScoreZero) {
  // Node 0 has no in-neighbours: s(0, v) = 0 for all v != 0.
  const Graph g = BuildGraph(3, {{0, 1}, {0, 2}, {1, 2}});
  const SimRankMatrix s = PowerMethodAllPairs(g, 0.6, 30);
  EXPECT_DOUBLE_EQ(s.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(s.At(0, 2), 0.0);
  EXPECT_GT(s.At(1, 2), 0.0);  // both have in-neighbour 0
}

TEST(PowerMethodTest, ConvergedByPaperIterationCount) {
  // 55 iterations (the paper's ground-truth depth) vs 70: difference below
  // float resolution at c = 0.6 (residual <= c^55 ~ 6e-13).
  const Graph g = PaperExampleGraph();
  const SimRankMatrix a = PowerMethodAllPairs(g, 0.6, 55);
  const SimRankMatrix b = PowerMethodAllPairs(g, 0.6, 70);
  for (NodeId u = 0; u < 8; ++u) {
    for (NodeId v = 0; v < 8; ++v) {
      EXPECT_NEAR(a.At(u, v), b.At(u, v), 1e-6);
    }
  }
}

TEST(PowerMethodTest, SingleSourceMatchesMatrixRow) {
  const Graph g = PaperExampleGraph();
  const SimRankMatrix s = PowerMethodAllPairs(g, 0.25, 30);
  PowerMethod power_method(0.25, 30);
  ASSERT_TRUE(power_method.Bind(&g).ok());
  const std::vector<double> row = power_method.SingleSource(0);
  ASSERT_EQ(row.size(), 8u);
  for (NodeId v = 0; v < 8; ++v) EXPECT_NEAR(row[v], s.At(0, v), 1e-7);
}

// The algorithm form serves the matrix it bound, row for row, bit for bit.
TEST(PowerMethodTest, AlgorithmRowIsBitwiseMatrixRow) {
  Rng rng(13);
  const Graph g = ErdosRenyi(40, 160, false, &rng);
  const SimRankMatrix s = PowerMethodAllPairs(g, 0.6, 55);
  PowerMethod power_method(0.6, 55);
  EXPECT_EQ(power_method.name(), "PowerMethod");
  ASSERT_TRUE(power_method.Bind(&g).ok());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const PartialResult result = power_method.SingleSource(u, nullptr);
    ASSERT_TRUE(result.complete()) << result.status;
    const std::vector<double> row = s.Row(u);
    ASSERT_EQ(result.scores.size(), row.size());
    EXPECT_EQ(0, std::memcmp(result.scores.data(), row.data(),
                             row.size() * sizeof(double)))
        << "source " << u;
  }
}

TEST(PowerMethodTest, AlgorithmRejectsOutOfRangeSource) {
  const Graph g = PaperExampleGraph();
  PowerMethod power_method;
  ASSERT_TRUE(power_method.Bind(&g).ok());
  for (const NodeId bad : {NodeId{-1}, NodeId{8}}) {
    const PartialResult result = power_method.SingleSource(bad, nullptr);
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(result.scores.empty());
  }
}

TEST(PowerMethodTest, ZeroIterationsIsIdentity) {
  const Graph g = PaperExampleGraph();
  const SimRankMatrix s = PowerMethodAllPairs(g, 0.6, 0);
  for (NodeId u = 0; u < 8; ++u) {
    for (NodeId v = 0; v < 8; ++v) {
      EXPECT_DOUBLE_EQ(s.At(u, v), u == v ? 1.0 : 0.0);
    }
  }
}

TEST(SimRankMatrixTest, RowCopy) {
  SimRankMatrix m(3);
  m.Set(1, 2, 0.5);
  const auto row = m.Row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[2], 0.5);
  EXPECT_DOUBLE_EQ(row[0], 0.0);
}

}  // namespace
}  // namespace crashsim
