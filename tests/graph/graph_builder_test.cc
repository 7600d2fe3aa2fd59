#include "graph/graph_builder.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace crashsim {
namespace {

TEST(GraphBuilderTest, DeduplicatesEdges) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  const Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphBuilderTest, DropsSelfLoops) {
  GraphBuilder b(3);
  b.AddEdge(1, 1);
  b.AddEdge(0, 2);
  const Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_FALSE(g.HasEdge(1, 1));
}

TEST(GraphBuilderTest, BuildIsRepeatable) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  const Graph g1 = b.Build();
  b.AddEdge(1, 2);
  const Graph g2 = b.Build();
  EXPECT_EQ(g1.num_edges(), 1);
  EXPECT_EQ(g2.num_edges(), 2);
}

TEST(GraphBuilderTest, AddEdgesBulk) {
  GraphBuilder b(4);
  b.AddEdges({{0, 1}, {1, 2}, {2, 3}, {2, 3}});
  EXPECT_EQ(b.Build().num_edges(), 3);
}

TEST(GraphBuilderTest, IsolatedNodesAllowed) {
  GraphBuilder b(10);
  b.AddEdge(0, 1);
  const Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 10);
  EXPECT_EQ(g.InDegree(9), 0);
  EXPECT_EQ(g.OutDegree(9), 0);
  EXPECT_TRUE(g.InNeighbors(9).empty());
}

TEST(GraphBuilderTest, UndirectedDedupAcrossOrientations) {
  GraphBuilder b(2, /*undirected=*/true);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // same undirected edge
  const Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 2);  // exactly the two directions
}

TEST(BuildGraphTest, Convenience) {
  const Graph g = BuildGraph(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 2);
}

std::vector<Edge> RandomEdges(NodeId n, size_t m, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (size_t i = 0; i < m; ++i) {
    edges.push_back(Edge{static_cast<NodeId>(rng.NextBounded(n)),
                         static_cast<NodeId>(rng.NextBounded(n))});
  }
  return edges;
}

TEST(SortUniqueEdgesTest, SortsAndDeduplicates) {
  // Small n forces duplicates.
  for (const auto& [n, m] : std::vector<std::pair<NodeId, size_t>>{
           {7, 200}, {50, 2000}, {1000, 100}, {1000, 5000}, {1, 3}, {4, 0}}) {
    std::vector<Edge> edges = RandomEdges(n, m, 17 + m);
    std::vector<Edge> expected = edges;
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    SortUniqueEdges(&edges);
    EXPECT_EQ(edges, expected) << "n=" << n << " m=" << m;
    SortUniqueEdges(&edges);  // already canonical: unchanged
    EXPECT_EQ(edges, expected);
  }
}

TEST(BuildGraphTest, SortedInputMatchesTheBuilder) {
  // A strictly ascending, loop-free list skips the sort; it must produce the
  // same CSR as the same edges staged in reverse order.
  std::vector<Edge> sorted = RandomEdges(300, 4000, 5);
  std::erase_if(sorted, [](const Edge& e) { return e.src == e.dst; });
  SortUniqueEdges(&sorted);
  std::vector<Edge> shuffled = sorted;
  std::reverse(shuffled.begin(), shuffled.end());
  GraphBuilder b(300);
  b.AddEdges(shuffled);
  const Graph staged = b.Build();
  const Graph direct = BuildGraph(300, sorted);
  EXPECT_TRUE(direct == staged);
  EXPECT_EQ(direct.Edges(), sorted);
  for (NodeId v = 0; v < 300; ++v) {
    const auto a = direct.InNeighbors(v);
    const auto c = staged.InNeighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), c.begin(), c.end())) << v;
  }
}

}  // namespace
}  // namespace crashsim
