#include "graph/snapshot_diff.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "util/rng.h"

namespace crashsim {
namespace {

TEST(DiffEdgeSetsTest, DisjointAddRemove) {
  const std::vector<Edge> before{{0, 1}, {1, 2}};
  const std::vector<Edge> after{{0, 1}, {2, 3}};
  const EdgeDelta d = DiffEdgeSets(before, after);
  EXPECT_EQ(d.added, (std::vector<Edge>{{2, 3}}));
  EXPECT_EQ(d.removed, (std::vector<Edge>{{1, 2}}));
}

TEST(DiffEdgeSetsTest, IdenticalSetsEmptyDelta) {
  const std::vector<Edge> e{{0, 1}, {1, 2}};
  EXPECT_TRUE(DiffEdgeSets(e, e).Empty());
}

TEST(DiffEdgeSetsTest, EmptyBeforeAndAfter) {
  const std::vector<Edge> e{{4, 5}};
  EXPECT_EQ(DiffEdgeSets({}, e).added.size(), 1u);
  EXPECT_EQ(DiffEdgeSets(e, {}).removed.size(), 1u);
  EXPECT_TRUE(DiffEdgeSets({}, {}).Empty());
}

TEST(ApplyDeltaTest, RoundTripsWithDiff) {
  Rng rng(17);
  // Random before/after pairs: applying Diff(before, after) to before must
  // yield after exactly.
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Edge> before;
    std::vector<Edge> after;
    for (int i = 0; i < 30; ++i) {
      const Edge e{static_cast<NodeId>(rng.NextBounded(10)),
                   static_cast<NodeId>(rng.NextBounded(10))};
      if (rng.Bernoulli(0.5)) before.push_back(e);
      if (rng.Bernoulli(0.5)) after.push_back(e);
    }
    auto normalize = [](std::vector<Edge>* v) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    };
    normalize(&before);
    normalize(&after);
    const EdgeDelta d = DiffEdgeSets(before, after);
    std::vector<Edge> result = before;
    ApplyDelta(d, &result);
    EXPECT_EQ(result, after) << "trial " << trial;
  }
}

TEST(ApplyDeltaTest, ToleratesNoOps) {
  std::vector<Edge> edges{{0, 1}};
  EdgeDelta d;
  d.added = {{0, 1}};   // already present
  d.removed = {{5, 6}};  // not present
  ApplyDelta(d, &edges);
  EXPECT_EQ(edges, (std::vector<Edge>{{0, 1}}));
}

// Nodes within `max_depth` hops of `seed` along `direction`, by one
// single-source BFS: the per-seed set BoundedHops must union to.
std::vector<NodeId> ReachableWithin(const Graph& g, NodeId seed, int max_depth,
                                    EdgeDirection direction) {
  std::vector<char> seen(static_cast<size_t>(g.num_nodes()), 0);
  std::vector<NodeId> result{seed};
  seen[static_cast<size_t>(seed)] = 1;
  size_t level_begin = 0;
  for (int depth = 0; depth < max_depth; ++depth) {
    const size_t level_end = result.size();
    for (size_t i = level_begin; i < level_end; ++i) {
      const NodeId u = result[i];
      for (NodeId v : direction == EdgeDirection::kOut ? g.OutNeighbors(u)
                                                       : g.InNeighbors(u)) {
        if (!seen[static_cast<size_t>(v)]) {
          seen[static_cast<size_t>(v)] = 1;
          result.push_back(v);
        }
      }
    }
    level_begin = level_end;
  }
  std::sort(result.begin(), result.end());
  return result;
}

// The nodes BoundedHops places within `depth` hops, sorted.
std::vector<NodeId> Within(const std::vector<int>& hops, int depth) {
  std::vector<NodeId> nodes;
  for (size_t v = 0; v < hops.size(); ++v) {
    if (hops[v] <= depth) nodes.push_back(static_cast<NodeId>(v));
  }
  return nodes;
}

TEST(ForwardReachableTest, PathDepths) {
  const Graph g = PathGraph(5, false);  // 0->1->2->3->4
  constexpr EdgeDirection kOut = EdgeDirection::kOut;
  EXPECT_EQ(BoundedHops(g, {0}, 0, kOut), (std::vector<int>{0, 1, 1, 1, 1}));
  EXPECT_EQ(BoundedHops(g, {0}, 2, kOut), (std::vector<int>{0, 1, 2, 3, 3}));
  EXPECT_EQ(BoundedHops(g, {0}, 10, kOut),
            (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(Within(BoundedHops(g, {4}, 3, kOut), 3), (std::vector<NodeId>{4}));
}

TEST(ForwardReachableTest, CycleSaturates) {
  const Graph g = CycleGraph(4, false);
  EXPECT_EQ(Within(BoundedHops(g, {0}, 100, EdgeDirection::kOut), 100).size(),
            4u);
}

TEST(ForwardReachableTest, BranchingBfsOrder) {
  // 0 -> {1, 2}, 1 -> 3.
  const Graph g = BuildGraph(4, {{0, 1}, {0, 2}, {1, 3}});
  EXPECT_EQ(BoundedHops(g, {0}, 1, EdgeDirection::kOut),
            (std::vector<int>{0, 1, 1, 2}));
  EXPECT_EQ(BoundedHops(g, {0}, 2, EdgeDirection::kOut),
            (std::vector<int>{0, 1, 1, 2}));
}

TEST(ReverseReachableTest, PathDepths) {
  const Graph g = PathGraph(5, false);  // 0->1->2->3->4
  constexpr EdgeDirection kIn = EdgeDirection::kIn;
  EXPECT_EQ(Within(BoundedHops(g, {4}, 0, kIn), 0), (std::vector<NodeId>{4}));
  EXPECT_EQ(BoundedHops(g, {4}, 2, kIn), (std::vector<int>{3, 3, 2, 1, 0}));
  EXPECT_EQ(Within(BoundedHops(g, {0}, 3, kIn), 3), (std::vector<NodeId>{0}));
}

TEST(ReverseReachableTest, MirrorsForwardOnReversedGraph) {
  Rng rng(23);
  const Graph g = ErdosRenyi(30, 120, false, &rng);
  // Reverse of g: flip every edge.
  std::vector<Edge> flipped;
  for (const Edge& e : g.Edges()) flipped.push_back({e.dst, e.src});
  const Graph rev = BuildGraph(30, flipped);
  for (NodeId v : {0, 7, 19}) {
    EXPECT_EQ(BoundedHops(g, {v}, 3, EdgeDirection::kIn),
              BoundedHops(rev, {v}, 3, EdgeDirection::kOut))
        << "node " << static_cast<int>(v);
  }
}

// One multi-source BFS equals the union of per-seed single-source BFS at
// every depth, in both directions, for empty, single, repeated and
// multi-node seed sets, and reads max_depth + 1 beyond the union.
TEST(BoundedHopsTest, EqualsUnionOfSingleSourceBfs) {
  constexpr int kLMax = 5;
  Rng rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    const NodeId n = 40;
    const Graph g = ErdosRenyi(n, 70 + 15 * trial, false, &rng);
    std::vector<std::vector<NodeId>> seed_sets{{}, {3}, {3, 3}};
    for (int k = 0; k < 4; ++k) {
      std::vector<NodeId> seeds;
      for (int i = 0; i <= k; ++i) {
        seeds.push_back(static_cast<NodeId>(rng.NextBounded(n)));
      }
      seeds.push_back(seeds.front());  // one repeat in every set
      seed_sets.push_back(seeds);
    }
    for (const EdgeDirection direction :
         {EdgeDirection::kOut, EdgeDirection::kIn}) {
      for (const std::vector<NodeId>& seeds : seed_sets) {
        for (int depth = 0; depth <= kLMax; ++depth) {
          SCOPED_TRACE(testing::Message()
                       << "trial " << trial << " direction "
                       << static_cast<int>(direction) << " seeds "
                       << seeds.size() << " depth " << depth);
          const std::vector<int> hops =
              BoundedHops(g, seeds, depth, direction);
          ASSERT_EQ(hops.size(), static_cast<size_t>(n));
          for (int d = 0; d <= depth; ++d) {
            std::vector<NodeId> expected;
            for (NodeId seed : seeds) {
              const std::vector<NodeId> r =
                  ReachableWithin(g, seed, d, direction);
              expected.insert(expected.end(), r.begin(), r.end());
            }
            std::sort(expected.begin(), expected.end());
            expected.erase(std::unique(expected.begin(), expected.end()),
                           expected.end());
            EXPECT_EQ(Within(hops, d), expected) << "within " << d;
          }
          for (int h : hops) {
            EXPECT_GE(h, 0);
            EXPECT_LE(h, depth + 1);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace crashsim
