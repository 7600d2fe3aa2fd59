#include "simrank/topk.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "simrank/power_method.h"
#include "simrank/probesim.h"

namespace crashsim {
namespace {

// A deterministic "algorithm" for the query helpers: returns the exact
// power-method row, so top-k outcomes are fully predictable.
class ExactAlgorithm : public SimRankAlgorithm {
 public:
  std::string name() const override { return "Exact"; }
  void Bind(const Graph* g) override {
    set_graph(g);
    matrix_ = PowerMethodAllPairs(*g, 0.6, 55);
  }
 protected:
  PartialResult SingleSourceImpl(NodeId u, QueryContext* /*ctx*/) override {
    PartialResult result;
    result.scores = matrix_.Row(u);
    return result;
  }

 private:
  SimRankMatrix matrix_;
};

TEST(TopKSimRankTest, ExcludesSourceAndSortsDescending) {
  const Graph g = PaperExampleGraph();
  ExactAlgorithm exact;
  exact.Bind(&g);
  const TopKResult top = TopKSimRank(&exact, 0, 3);
  ASSERT_EQ(top.size(), 3u);
  for (const auto& [score, node] : top) EXPECT_NE(node, 0);
  EXPECT_GE(top[0].first, top[1].first);
  EXPECT_GE(top[1].first, top[2].first);
}

TEST(TopKSimRankTest, MatchesExactRanking) {
  const Graph g = PaperExampleGraph();
  ExactAlgorithm exact;
  exact.Bind(&g);
  const auto row = exact.SingleSource(0);
  const TopKResult top = TopKSimRank(&exact, 0, 1);
  ASSERT_EQ(top.size(), 1u);
  double best = -1.0;
  NodeId best_node = -1;
  for (NodeId v = 1; v < 8; ++v) {
    if (row[static_cast<size_t>(v)] > best) {
      best = row[static_cast<size_t>(v)];
      best_node = v;
    }
  }
  EXPECT_EQ(top[0].second, best_node);
  EXPECT_DOUBLE_EQ(top[0].first, best);
}

TEST(TopKSimRankTest, KLargerThanGraphReturnsAll) {
  const Graph g = PaperExampleGraph();
  ExactAlgorithm exact;
  exact.Bind(&g);
  const TopKResult top = TopKSimRank(&exact, 0, 100);
  EXPECT_EQ(top.size(), 7u);  // everything but the source
}

TEST(TopKSimRankTest, CandidateRestrictedVariant) {
  const Graph g = PaperExampleGraph();
  ExactAlgorithm exact;
  exact.Bind(&g);
  const std::vector<NodeId> cands{1, 5, 6};
  const TopKResult top = TopKSimRank(&exact, 0, 2, cands);
  ASSERT_EQ(top.size(), 2u);
  for (const auto& [score, node] : top) {
    EXPECT_TRUE(node == 1 || node == 5 || node == 6);
  }
}

TEST(TopKSimRankTest, CandidateListContainingSourceSkipsIt) {
  const Graph g = PaperExampleGraph();
  ExactAlgorithm exact;
  exact.Bind(&g);
  const std::vector<NodeId> cands{0, 3};
  const TopKResult top = TopKSimRank(&exact, 0, 5, cands);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].second, 3);
}

TEST(TopKSimRankTest, WorksWithMonteCarloAlgorithms) {
  const Graph g = PaperExampleGraph();
  SimRankOptions mc;
  mc.trials_override = 20000;
  mc.seed = 5;
  ProbeSim probesim(mc);
  probesim.Bind(&g);
  ExactAlgorithm exact;
  exact.Bind(&g);
  // The MC top-1 should match the exact top-1 at this trial count.
  EXPECT_EQ(TopKSimRank(&probesim, 0, 1)[0].second,
            TopKSimRank(&exact, 0, 1)[0].second);
}

}  // namespace
}  // namespace crashsim
