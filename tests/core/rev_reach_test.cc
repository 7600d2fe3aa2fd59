#include "core/rev_reach.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_context.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "util/failpoint.h"
#include "util/memory_budget.h"

namespace crashsim {
namespace {

enum { A, B, C, D, E, F, G, H };

TEST(RevReachPaperModeTest, ReproducesExample2Level1) {
  // Example 2 (c = 0.25, sqrt c = 0.5): U(1,B) = 1 * 0.5/|I(B)| = 0.25,
  // U(1,C) = 1 * 0.5/|I(C)| = 0.167.
  const Graph g = PaperExampleGraph();
  const auto tree = BuildRevReach(g, A, 6, 0.25, RevReachMode::kPaper);
  EXPECT_DOUBLE_EQ(tree.Probability(0, A), 1.0);
  EXPECT_NEAR(tree.Probability(1, B), 0.25, 1e-6);
  EXPECT_NEAR(tree.Probability(1, C), 0.5 / 3.0, 1e-6);
  EXPECT_EQ(tree.LevelEntries(1).size(), 2u);
}

TEST(RevReachPaperModeTest, ReproducesExample2Level2) {
  // (2,E) = 0.0625, (2,B) = 0.0417, (2,D) = 0.0417.
  const Graph g = PaperExampleGraph();
  const auto tree = BuildRevReach(g, A, 6, 0.25, RevReachMode::kPaper);
  EXPECT_NEAR(tree.Probability(2, E), 0.0625, 1e-4);
  EXPECT_NEAR(tree.Probability(2, B), 0.0417, 1e-4);
  EXPECT_NEAR(tree.Probability(2, D), 0.0417, 1e-4);
  EXPECT_EQ(tree.LevelEntries(2).size(), 3u);
}

TEST(RevReachPaperModeTest, ReproducesExample2Level3) {
  // (3,H) = 0.0156, (3,A) = 0.0104, (3,E) = 0.0104, (3,B) = 0.0104.
  const Graph g = PaperExampleGraph();
  const auto tree = BuildRevReach(g, A, 6, 0.25, RevReachMode::kPaper);
  EXPECT_NEAR(tree.Probability(3, H), 0.0156, 1e-4);
  EXPECT_NEAR(tree.Probability(3, A), 0.0104, 1e-4);
  EXPECT_NEAR(tree.Probability(3, E), 0.0104, 1e-4);
  EXPECT_NEAR(tree.Probability(3, B), 0.0104, 1e-4);
  EXPECT_EQ(tree.LevelEntries(3).size(), 4u);
}

TEST(RevReachPaperModeTest, ReproducesExample2WalkScore) {
  // Example 2 scores the sampled walk W(C) = (C, D, B, A) as
  //   s_k(A,C) = U(0,C) + U(1,D) + U(2,B) + U(3,A)
  //            = 0 + 0 + 0.0417 + 0.0104 = 0.0521.
  const Graph g = PaperExampleGraph();
  const auto tree = BuildRevReach(g, A, 6, 0.25, RevReachMode::kPaper);
  const NodeId walk[] = {C, D, B, A};
  double score = 0.0;
  for (int i = 1; i <= 4; ++i) {
    score += tree.Probability(i - 1, walk[i - 1]);
  }
  EXPECT_NEAR(score, 0.0521, 2e-4);
  EXPECT_EQ(tree.Probability(0, C), 0.0);
  EXPECT_EQ(tree.Probability(1, D), 0.0);
}

TEST(RevReachPaperModeTest, ParentExclusionBlocksBacktrack) {
  // Path 0 <- 1 <- 2 (edges 1->0, 2->1): from level-1 node 1 the paper mode
  // must not go back to 0.
  const Graph g = BuildGraph(3, {{1, 0}, {2, 1}});
  const auto tree = BuildRevReach(g, 0, 5, 0.25, RevReachMode::kPaper);
  EXPECT_GT(tree.Probability(1, 1), 0.0);
  EXPECT_GT(tree.Probability(2, 2), 0.0);
  EXPECT_EQ(tree.Probability(2, 0), 0.0);  // would be the backtrack
}

TEST(RevReachCorrectedModeTest, LevelsAreTrueWalkMarginals) {
  // In corrected mode level-l masses must sum to (sqrt c)^l when no node on
  // the frontier is a dead end (every step survives with prob sqrt c).
  const Graph g = CycleGraph(5, false);
  const double c = 0.36;  // sqrt c = 0.6
  const auto tree = BuildRevReach(g, 0, 8, c, RevReachMode::kCorrected);
  for (int level = 0; level <= 8; ++level) {
    double total = 0.0;
    for (const auto& e : tree.LevelEntries(level)) {
      total += e.prob;
    }
    EXPECT_NEAR(total, std::pow(std::sqrt(c), level), 1e-5)
        << "level " << level;
  }
}

TEST(RevReachCorrectedModeTest, MarginalMatchesMonteCarlo) {
  // Empirical check: U(l, v) == Pr[walk from u occupies v at step l].
  const Graph g = PaperExampleGraph();
  const double c = 0.25;
  const auto tree = BuildRevReach(g, A, 4, c, RevReachMode::kCorrected);

  Rng rng(77);
  const int kN = 400000;
  std::vector<std::vector<int>> counts(5, std::vector<int>(8, 0));
  std::vector<NodeId> walk;
  for (int i = 0; i < kN; ++i) {
    // Manual walk (not capped below 5 nodes).
    NodeId cur = A;
    counts[0][A] += 1;
    for (int step = 1; step <= 4; ++step) {
      const auto in = g.InNeighbors(cur);
      if (in.empty() || !rng.Bernoulli(std::sqrt(c))) break;
      cur = in[rng.NextBounded(in.size())];
      counts[static_cast<size_t>(step)][static_cast<size_t>(cur)] += 1;
    }
  }
  for (int level = 0; level <= 4; ++level) {
    for (NodeId v = 0; v < 8; ++v) {
      const double mc =
          static_cast<double>(counts[static_cast<size_t>(level)]
                                    [static_cast<size_t>(v)]) /
          kN;
      EXPECT_NEAR(tree.Probability(level, v), mc, 0.004)
          << "level " << level << " node " << static_cast<int>(v);
    }
  }
}

TEST(RevReachTest, EqualityDetectsGraphChange) {
  const Graph g1 = PaperExampleGraph();
  const auto t1 = BuildRevReach(g1, A, 6, 0.25, RevReachMode::kPaper);
  const auto t1_again = BuildRevReach(g1, A, 6, 0.25, RevReachMode::kPaper);
  EXPECT_TRUE(t1 == t1_again);

  // Removing an edge inside the tree's reach changes it.
  std::vector<Edge> edges = g1.Edges();
  std::erase(edges, Edge{B, A});
  const Graph g2 = BuildGraph(8, edges);
  const auto t2 = BuildRevReach(g2, A, 6, 0.25, RevReachMode::kPaper);
  EXPECT_FALSE(t1 == t2);
}

TEST(RevReachTest, EqualityIgnoresFarAwayChange) {
  // An edge change outside the truncated reach leaves the tree identical.
  const Graph g1 = BuildGraph(6, {{1, 0}, {2, 1}, {4, 5}});
  const auto t1 = BuildRevReach(g1, 0, 3, 0.25, RevReachMode::kPaper);
  const Graph g2 = BuildGraph(6, {{1, 0}, {2, 1}, {5, 4}});
  const auto t2 = BuildRevReach(g2, 0, 3, 0.25, RevReachMode::kPaper);
  EXPECT_TRUE(t1 == t2);
}

TEST(RevReachTest, PruneThresholdDropsTinyEntries) {
  const Graph g = PaperExampleGraph();
  const auto full = BuildRevReach(g, A, 6, 0.25, RevReachMode::kPaper, 0.0);
  const auto pruned = BuildRevReach(g, A, 6, 0.25, RevReachMode::kPaper, 0.02);
  EXPECT_LT(pruned.EntryCount(), full.EntryCount());
  // Level 1 survives (0.25 and 0.167 both above threshold).
  EXPECT_EQ(pruned.LevelEntries(1).size(), 2u);
}

TEST(RevReachTest, SourceWithNoInNeighbours) {
  const Graph g = BuildGraph(3, {{0, 1}, {0, 2}});
  const auto tree = BuildRevReach(g, 0, 4, 0.25, RevReachMode::kPaper);
  EXPECT_DOUBLE_EQ(tree.Probability(0, 0), 1.0);
  EXPECT_EQ(tree.EntryCount(), 1);
}

TEST(RevReachTest, LMaxZeroKeepsOnlySource) {
  const Graph g = PaperExampleGraph();
  const auto tree = BuildRevReach(g, A, 0, 0.25, RevReachMode::kPaper);
  EXPECT_EQ(tree.max_level(), 0);
  EXPECT_EQ(tree.EntryCount(), 1);
}

TEST(RevReachSparseTest, LevelSpansPartitionEntriesSorted) {
  Rng rng(5);
  const Graph g = BarabasiAlbert(500, 3, false, &rng);
  const auto tree = BuildRevReach(g, 7, 12, 0.6, RevReachMode::kCorrected);
  int64_t total = 0;
  for (int level = 0; level <= tree.max_level(); ++level) {
    const auto entries = tree.LevelEntries(level);
    total += static_cast<int64_t>(entries.size());
    for (size_t i = 0; i + 1 < entries.size(); ++i) {
      EXPECT_LT(entries[i].node, entries[i + 1].node) << "level " << level;
    }
    // Every stored cell is served back verbatim by the lookup path.
    for (const auto& e : entries) {
      EXPECT_EQ(tree.Probability(level, e.node), e.prob);
    }
  }
  EXPECT_EQ(total, tree.EntryCount());
  EXPECT_TRUE(tree.LevelEntries(-1).empty());
  EXPECT_TRUE(tree.LevelEntries(tree.max_level() + 1).empty());
}

// Dense reference builder: the exact recurrence of BuildRevReach replayed
// into an (l_max + 1) x n float matrix, same accumulation order and
// arithmetic, so the sparse tree must match it bit for bit.
std::vector<float> DenseReference(const Graph& g, NodeId u, int l_max,
                                  double c, RevReachMode mode,
                                  double prune_threshold) {
  const double sqrt_c = std::sqrt(c);
  const NodeId n = g.num_nodes();
  std::vector<float> dense(static_cast<size_t>(l_max + 1) *
                               static_cast<size_t>(n),
                           0.0f);
  auto cell = [&](int level, NodeId v) -> float& {
    return dense[static_cast<size_t>(level) * static_cast<size_t>(n) +
                 static_cast<size_t>(v)];
  };
  cell(0, u) = 1.0f;
  std::vector<NodeId> first_parent(static_cast<size_t>(n), -1);
  std::vector<NodeId> parent_of(static_cast<size_t>(n), -1);
  std::vector<NodeId> next_parent_of(static_cast<size_t>(n), -1);
  std::vector<NodeId> touched;
  std::vector<ReverseReachableTree::Entry> frontier{{u, 1.0f}};
  for (int level = 0; level < l_max && !frontier.empty(); ++level) {
    touched.clear();
    for (const auto& [x, prob] : frontier) {
      const NodeId exclude = (mode == RevReachMode::kPaper)
                                 ? parent_of[static_cast<size_t>(x)]
                                 : -1;
      const auto in = g.InNeighbors(x);
      if (in.empty()) continue;
      const double out_factor = (mode == RevReachMode::kCorrected)
                                    ? sqrt_c / static_cast<double>(in.size())
                                    : 0.0;
      for (NodeId v : in) {
        if (v == exclude) continue;
        const double factor =
            (mode == RevReachMode::kPaper)
                ? sqrt_c / static_cast<double>(std::max(1, g.InDegree(v)))
                : out_factor;
        if (first_parent[static_cast<size_t>(v)] < 0) {
          first_parent[static_cast<size_t>(v)] = x;
          touched.push_back(v);
        }
        cell(level + 1, v) +=
            static_cast<float>(static_cast<double>(prob) * factor);
      }
    }
    std::vector<ReverseReachableTree::Entry> level_entries;
    for (NodeId v : touched) {
      float& slot = cell(level + 1, v);
      if (slot > prune_threshold) {
        level_entries.push_back({v, slot});
        next_parent_of[static_cast<size_t>(v)] =
            first_parent[static_cast<size_t>(v)];
      } else {
        slot = 0.0f;
      }
      first_parent[static_cast<size_t>(v)] = -1;
    }
    std::sort(level_entries.begin(), level_entries.end(),
              [](const auto& a, const auto& b) { return a.node < b.node; });
    parent_of.swap(next_parent_of);
    frontier = std::move(level_entries);
  }
  return dense;
}

// Randomised graphs x both recurrences x prune thresholds, each tree handed
// to `check` beside its DenseReference matrix. The larger graphs span many
// bitset words with a partial last word, and hold levels on both sides of
// the n/64 density rule; the undirected one makes paper-mode parent
// exclusion fire. Returns whether a source of in-degree zero was covered.
template <typename Check>
bool ForEachBaselineTree(Check check) {
  struct Case {
    std::string name;
    Graph g;
    int l_max;
    std::vector<double> prunes;
    std::vector<NodeId> sources;
  };
  std::vector<Case> cases;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    cases.push_back({"er120/" + std::to_string(seed),
                     ErdosRenyi(120, 600, false, &rng), 9, {0.0, 1e-4}, {3}});
  }
  Rng rng(11);
  cases.push_back({"er1000", ErdosRenyi(1000, 5000, false, &rng), 35, {}, {}});
  cases.push_back({"ba2000", BarabasiAlbert(2000, 3, false, &rng), 35, {}, {}});
  cases.push_back(
      {"ba700-undirected", BarabasiAlbert(700, 2, true, &rng), 35, {}, {}});
  bool saw_in_degree_zero = false;
  for (Case& tc : cases) {
    const NodeId n = tc.g.num_nodes();
    if (tc.sources.empty()) {
      tc.prunes = {0.0, 1e-9, 1e-4};
      NodeId hub = 0;
      for (NodeId v = 1; v < n; ++v) {
        if (tc.g.InDegree(v) > tc.g.InDegree(hub)) hub = v;
      }
      tc.sources = {hub, 63, 64, n - 1};
      for (NodeId v = 0; v < n; ++v) {
        if (tc.g.InDegree(v) == 0) {
          tc.sources.push_back(v);
          saw_in_degree_zero = true;
          break;
        }
      }
    }
    for (NodeId src : tc.sources) {
      for (RevReachMode mode :
           {RevReachMode::kPaper, RevReachMode::kCorrected}) {
        for (double prune : tc.prunes) {
          const std::string where =
              tc.name + " source " + std::to_string(src) + " mode " +
              (mode == RevReachMode::kPaper ? "paper" : "corrected") +
              " prune " + std::to_string(prune);
          check(tc.g, BuildRevReach(tc.g, src, tc.l_max, 0.6, mode, prune),
                DenseReference(tc.g, src, tc.l_max, 0.6, mode, prune), where);
        }
      }
    }
  }
  return saw_in_degree_zero;
}

TEST(RevReachSparseTest, ProbabilityMatchesDenseBaselineBothModes) {
  // Every (level, node) lookup must equal the dense matrix the old
  // push-and-sort builder stored, through the scalar probe, the walk
  // engine's per-level batch probe and the level enumerator alike, and the
  // tree holds exactly the non-zero cells.
  const bool saw_in_degree_zero = ForEachBaselineTree(
      [](const Graph& g, const ReverseReachableTree& tree,
         const std::vector<float>& dense, const std::string& where) {
        const NodeId n = g.num_nodes();
        std::vector<NodeId> nodes(static_cast<size_t>(n));
        for (NodeId v = 0; v < n; ++v) nodes[static_cast<size_t>(v)] = v;
        std::vector<double> batch(nodes.size());
        ASSERT_EQ(tree.EntryCount(),
                  std::count_if(dense.begin(), dense.end(),
                                [](float p) { return p != 0.0f; }))
            << where;
        for (int level = 0; level <= tree.max_level(); ++level) {
          const float* row = dense.data() + static_cast<size_t>(level) *
                                                static_cast<size_t>(n);
          std::vector<ReverseReachableTree::Entry> want_entries;
          for (NodeId v = 0; v < n; ++v) {
            if (row[v] != 0.0f) want_entries.push_back({v, row[v]});
          }
          ASSERT_EQ(tree.LevelEntries(level), want_entries)
              << "enumerator: " << where << " level " << level;
          tree.ProbabilityBatch(level, nodes, batch);
          for (NodeId v = 0; v < n; ++v) {
            const double want = row[v];
            ASSERT_EQ(tree.Probability(level, v), want)
                << where << " level " << level << " node " << v;
            ASSERT_EQ(batch[static_cast<size_t>(v)], want)
                << "batch: " << where << " level " << level << " node " << v;
          }
        }
      });
  EXPECT_TRUE(saw_in_degree_zero);
}

TEST(RevReachLayoutTest, EachLevelIsStoredOnceInTheFormItsSizeEarns) {
  // A level past level 0 with at least max(1, n/64) cells is a dense row
  // and nothing else; every other level is a slice and nothing else. The
  // footprint is exactly the rows, the slices and the two offset arrays.
  ForEachBaselineTree([](const Graph& g, const ReverseReachableTree& tree,
                         const std::vector<float>&, const std::string& where) {
    const size_t n = static_cast<size_t>(g.num_nodes());
    const ReverseReachableTree::DenseRows& rows = tree.EnsureDenseRows();
    const size_t levels = static_cast<size_t>(tree.num_levels());
    ASSERT_EQ(rows.row_off.size(), levels) << where;
    size_t dense_levels = 0;
    int64_t slice_entries = 0;
    for (int level = 0; level <= tree.max_level(); ++level) {
      const size_t cells = tree.LevelEntries(level).size();
      const int64_t off = rows.row_off[static_cast<size_t>(level)];
      const bool earns_row =
          level > 0 && cells >= std::max<size_t>(1, n / 64);
      ASSERT_EQ(off >= 0, earns_row) << where << " level " << level;
      if (earns_row) {
        EXPECT_EQ(off, static_cast<int64_t>(dense_levels * n)) << where;
        EXPECT_TRUE(tree.Level(level).empty()) << where << " level " << level;
        ++dense_levels;
      } else {
        EXPECT_EQ(tree.Level(level).size(), cells)
            << where << " level " << level;
      }
      slice_entries += static_cast<int64_t>(tree.Level(level).size());
    }
    EXPECT_EQ(rows.prob.size(), dense_levels * n) << where;
    const int64_t want_bytes = static_cast<int64_t>(
        rows.prob.size() * sizeof(float) +
        static_cast<size_t>(slice_entries) *
            sizeof(ReverseReachableTree::Entry) +
        (2 * levels + 1) * sizeof(int64_t));
    EXPECT_EQ(tree.MemoryBytes(), want_bytes) << where;
  });
}

// The tree of source 0 over 0 <- 1, 0 <- 2, 2 <- 3 (plus 2 <- 4 when
// `second_parent`) in n nodes, paper mode, l_max 1: level 1 is {1, 2}, and
// U(1, 2) = sqrt(c) / |I(2)| is the only cell the extra edge changes.
ReverseReachableTree OneCellApart(NodeId n, bool second_parent) {
  std::vector<Edge> edges = {{1, 0}, {2, 0}, {3, 2}};
  if (second_parent) edges.push_back({4, 2});
  return BuildRevReach(BuildGraph(n, edges), 0, 1, 0.6, RevReachMode::kPaper);
}

TEST(RevReachLayoutTest, EqualityRejectsOneChangedCellInEitherForm) {
  // n = 5: two cells meet max(1, n/64) = 1, so level 1 is a dense row.
  // n = 200: they fall short of n/64 = 3, so level 1 is a sparse slice.
  for (const NodeId n : {5, 200}) {
    const ReverseReachableTree a = OneCellApart(n, false);
    const ReverseReachableTree b = OneCellApart(n, true);
    ASSERT_EQ(a.EnsureDenseRows().row_off[1] >= 0, n == 5) << "n " << n;
    ASSERT_EQ(a.EntryCount(), b.EntryCount()) << "n " << n;
    ASSERT_EQ(a.Probability(1, 1), b.Probability(1, 1)) << "n " << n;
    ASSERT_NE(a.Probability(1, 2), b.Probability(1, 2)) << "n " << n;
    EXPECT_FALSE(a == b) << "n " << n;
    EXPECT_TRUE(a == OneCellApart(n, false)) << "n " << n;
  }
}

TEST(RevReachSparseTest, MemoryScalesWithEntriesNotLevelsTimesNodes) {
  // A deep chain inside a large graph: the reached set stays tiny, so the
  // sparse tree must stay tiny too — the dense representation paid
  // (l_max + 1) * n floats regardless.
  const NodeId n = 50000;
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < 40; ++i) edges.push_back({i + 1, i});
  const Graph g = BuildGraph(n, edges);
  const int l_max = 35;
  const auto tree = BuildRevReach(g, 0, l_max, 0.6, RevReachMode::kCorrected);
  ASSERT_GT(tree.EntryCount(), l_max);  // the chain is actually reached
  const int64_t dense_bytes =
      static_cast<int64_t>(l_max + 1) * n * static_cast<int64_t>(sizeof(float));
  // Storage is a small constant per entry plus O(l_max) offsets — orders of
  // magnitude below the dense matrix, and far below even a 10x reduction.
  EXPECT_LT(tree.MemoryBytes(), dense_bytes / 100);
  EXPECT_LT(tree.MemoryBytes(),
            64 * tree.EntryCount() + 64 * (l_max + 2) + 1024);
}

TEST(RevReachRobustnessTest, InjectedAllocationFailureIsResourceExhausted) {
  // Loader-OOM contract: a bad_alloc inside the build — injected through
  // the rev_reach.alloc failpoint — comes back as kResourceExhausted with
  // the byte estimate, never as an uncaught exception.
  const Graph g = PaperExampleGraph();
  FailpointScope scope(42);
  FailpointSpec spec;
  spec.action = FailpointAction::kBadAlloc;
  ASSERT_TRUE(ConfigureFailpoint("rev_reach.alloc", spec).ok());
  QueryContext ctx;
  const auto tree_or =
      BuildRevReach(g, A, 6, 0.25, RevReachMode::kCorrected, 0.0, &ctx);
  ASSERT_FALSE(tree_or.ok());
  EXPECT_EQ(tree_or.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(tree_or.status().message().find("out of memory"),
            std::string::npos);
  EXPECT_NE(tree_or.status().message().find("bytes"), std::string::npos);
}

TEST(RevReachRobustnessTest, InjectedBuildFaultReturnsItsStatus) {
  const Graph g = PaperExampleGraph();
  FailpointScope scope(42);
  FailpointSpec spec;
  spec.action = FailpointAction::kError;
  spec.code = StatusCode::kUnavailable;
  ASSERT_TRUE(ConfigureFailpoint("rev_reach.build", spec).ok());
  QueryContext ctx;
  const auto tree_or =
      BuildRevReach(g, A, 6, 0.25, RevReachMode::kCorrected, 0.0, &ctx);
  ASSERT_FALSE(tree_or.ok());
  EXPECT_EQ(tree_or.status().code(), StatusCode::kUnavailable);
}

TEST(RevReachRobustnessTest, TinyMemoryBudgetShedsTheBuildCleanly) {
  const Graph g = PaperExampleGraph();
  MemoryBudget budget(64);  // far below the O(n) build scratch
  QueryContext ctx;
  ctx.set_memory_budget(&budget);
  const auto tree_or =
      BuildRevReach(g, A, 6, 0.25, RevReachMode::kCorrected, 0.0, &ctx);
  ASSERT_FALSE(tree_or.ok());
  EXPECT_EQ(tree_or.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(tree_or.status().message().find("memory budget"),
            std::string::npos);
  // Every charge was refunded on the error path.
  EXPECT_EQ(budget.used(), 0);
}

TEST(RevReachRobustnessTest, GenerousBudgetKeepsTreeBytesChargedOnSuccess) {
  const Graph g = PaperExampleGraph();
  MemoryBudget budget(8 << 20);
  QueryContext ctx;
  ctx.set_memory_budget(&budget);
  const auto tree_or =
      BuildRevReach(g, A, 6, 0.25, RevReachMode::kCorrected, 0.0, &ctx);
  ASSERT_TRUE(tree_or.ok()) << tree_or.status();
  // Scratch is refunded when the build ends; the tree's own footprint stays
  // charged for the query's lifetime.
  EXPECT_EQ(budget.used(), tree_or->MemoryBytes());
  EXPECT_GT(budget.peak(), budget.used());
  // The budgeted build is bit-identical to an unbudgeted one.
  const auto plain = BuildRevReach(g, A, 6, 0.25, RevReachMode::kCorrected);
  EXPECT_TRUE(*tree_or == plain);
}

TEST(RevReachSparseTest, DenseLevelsAnswerMissesExactly) {
  // A dense level (star hub reaches every leaf at level 1) is a row load;
  // spot-check hits and misses against LevelEntries().
  const Graph g = StarGraph(400, /*undirected=*/true);
  const auto tree = BuildRevReach(g, 0, 3, 0.6, RevReachMode::kCorrected);
  ASSERT_GE(tree.EnsureDenseRows().row_off[1], 0);
  ASSERT_EQ(tree.LevelEntries(1).size(), 399u);  // all leaves
  for (NodeId v = 1; v < 400; ++v) EXPECT_GT(tree.Probability(1, v), 0.0);
  EXPECT_EQ(tree.Probability(1, 0), 0.0);  // hub absent at level 1
  // Level 2 holds only the hub, a sparse slice: every leaf is a search miss.
  ASSERT_EQ(tree.EnsureDenseRows().row_off[2], -1);
  for (NodeId v = 1; v < 400; ++v) EXPECT_EQ(tree.Probability(2, v), 0.0);
  EXPECT_GT(tree.Probability(2, 0), 0.0);
}

}  // namespace
}  // namespace crashsim
