#include "graph/temporal_graph.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

namespace crashsim {
namespace {

TemporalGraph ThreeSnapshots() {
  // t0: 0->1, 1->2 ; t1: drop 1->2, add 2->0 ; t2: add 1->2 back.
  TemporalGraphBuilder b(3);
  b.AddSnapshot({{0, 1}, {1, 2}});
  b.AddSnapshot({{0, 1}, {2, 0}});
  b.AddSnapshot({{0, 1}, {2, 0}, {1, 2}});
  return b.Build();
}

TEST(TemporalGraphTest, SnapshotCountAndNodes) {
  const TemporalGraph tg = ThreeSnapshots();
  EXPECT_EQ(tg.num_snapshots(), 3);
  EXPECT_EQ(tg.num_nodes(), 3);
}

TEST(TemporalGraphTest, DeltasEncodeDifferences) {
  const TemporalGraph tg = ThreeSnapshots();
  EXPECT_EQ(tg.Delta(0).added.size(), 2u);
  EXPECT_TRUE(tg.Delta(0).removed.empty());
  EXPECT_EQ(tg.Delta(1).added, (std::vector<Edge>{{2, 0}}));
  EXPECT_EQ(tg.Delta(1).removed, (std::vector<Edge>{{1, 2}}));
  EXPECT_EQ(tg.Delta(2).added, (std::vector<Edge>{{1, 2}}));
  EXPECT_TRUE(tg.Delta(2).removed.empty());
}

TEST(TemporalGraphTest, SnapshotMaterialisation) {
  const TemporalGraph tg = ThreeSnapshots();
  const Graph g0 = tg.Snapshot(0);
  EXPECT_TRUE(g0.HasEdge(1, 2));
  EXPECT_FALSE(g0.HasEdge(2, 0));
  const Graph g1 = tg.Snapshot(1);
  EXPECT_FALSE(g1.HasEdge(1, 2));
  EXPECT_TRUE(g1.HasEdge(2, 0));
  const Graph g2 = tg.Snapshot(2);
  EXPECT_TRUE(g2.HasEdge(1, 2));
  EXPECT_TRUE(g2.HasEdge(2, 0));
  EXPECT_TRUE(g2.HasEdge(0, 1));
}

TEST(TemporalGraphBuilderTest, DuplicateAndSelfLoopNormalisation) {
  TemporalGraphBuilder b(3);
  b.AddSnapshot({{0, 1}, {0, 1}, {2, 2}});
  const TemporalGraph tg = b.Build();
  EXPECT_EQ(tg.SnapshotEdges(0), (std::vector<Edge>{{0, 1}}));
}

TEST(TemporalGraphBuilderTest, UndirectedSymmetrisesEverySnapshot) {
  TemporalGraphBuilder b(3, /*undirected=*/true);
  b.AddSnapshot({{0, 1}});
  b.AddSnapshot({{0, 1}, {1, 2}});
  const TemporalGraph tg = b.Build();
  const Graph g1 = tg.Snapshot(1);
  EXPECT_TRUE(g1.HasEdge(1, 2));
  EXPECT_TRUE(g1.HasEdge(2, 1));
  // Delta carries both orientations.
  EXPECT_EQ(tg.Delta(1).added.size(), 2u);
}

TEST(TemporalGraphBuilderTest, AddDeltaForm) {
  TemporalGraphBuilder b(4);
  b.AddSnapshot({{0, 1}, {1, 2}});
  b.AddDelta(/*added=*/{{2, 3}}, /*removed=*/{{0, 1}});
  const TemporalGraph tg = b.Build();
  const Graph g1 = tg.Snapshot(1);
  EXPECT_FALSE(g1.HasEdge(0, 1));
  EXPECT_TRUE(g1.HasEdge(2, 3));
  EXPECT_TRUE(g1.HasEdge(1, 2));
}

TEST(TemporalGraphBuilderTest, MovingBuildMatchesCopyingBuild) {
  TemporalGraphBuilder b(4, /*undirected=*/true);
  b.AddSnapshot({{3, 1}, {0, 1}, {1, 0}, {2, 2}});
  b.AddSnapshot({{2, 3}, {0, 1}});
  const TemporalGraph copied = b.Build();
  const TemporalGraph moved = std::move(b).Build();
  ASSERT_EQ(moved.num_snapshots(), copied.num_snapshots());
  EXPECT_TRUE(moved.undirected());
  for (int t = 0; t < moved.num_snapshots(); ++t) {
    EXPECT_EQ(moved.Delta(t).added, copied.Delta(t).added);
    EXPECT_EQ(moved.Delta(t).removed, copied.Delta(t).removed);
  }
  EXPECT_EQ(moved.SnapshotEdges(0),
            (std::vector<Edge>{{0, 1}, {1, 0}, {1, 3}, {3, 1}}));
}

TEST(TemporalGraphBuilderTest, AddDeltaIgnoresNoOps) {
  TemporalGraphBuilder b(3);
  b.AddSnapshot({{0, 1}});
  // Adding an existing edge and removing a missing one are no-ops.
  b.AddDelta({{0, 1}}, {{1, 2}});
  const TemporalGraph tg = b.Build();
  EXPECT_TRUE(tg.Delta(1).Empty());
}

TEST(SnapshotCursorTest, WalksAllSnapshots) {
  const TemporalGraph tg = ThreeSnapshots();
  SnapshotCursor cursor(&tg);
  EXPECT_EQ(cursor.snapshot_index(), 0);
  EXPECT_TRUE(cursor.graph() == tg.Snapshot(0));
  EXPECT_EQ(cursor.previous(), nullptr);
  ASSERT_TRUE(cursor.Advance());
  EXPECT_TRUE(cursor.graph() == tg.Snapshot(1));
  ASSERT_NE(cursor.previous(), nullptr);
  EXPECT_TRUE(*cursor.previous() == tg.Snapshot(0));
  ASSERT_TRUE(cursor.Advance());
  EXPECT_TRUE(cursor.graph() == tg.Snapshot(2));
  EXPECT_TRUE(*cursor.previous() == tg.Snapshot(1));
  EXPECT_FALSE(cursor.Advance());
  EXPECT_EQ(cursor.snapshot_index(), 2);
  EXPECT_TRUE(*cursor.previous() == tg.Snapshot(1));
}

TEST(SnapshotCursorTest, StartAtMatchesAdvancedCursor) {
  // Five snapshots with additions and removals at every step, so each start
  // position replays a different prefix of deltas.
  TemporalGraphBuilder b(6);
  b.AddSnapshot({{0, 1}, {1, 2}, {2, 3}});
  b.AddDelta({{3, 4}, {4, 0}}, {{1, 2}});
  b.AddDelta({{1, 2}, {5, 1}}, {{0, 1}, {3, 4}});
  b.AddDelta({{0, 5}}, {{2, 3}, {4, 0}});
  b.AddDelta({{2, 3}, {3, 4}}, {{5, 1}});
  const TemporalGraph tg = b.Build();
  for (int t = 0; t < tg.num_snapshots(); ++t) {
    SnapshotCursor started(&tg, t);
    SnapshotCursor advanced(&tg);
    for (int i = 0; i < t; ++i) ASSERT_TRUE(advanced.Advance());
    EXPECT_EQ(started.snapshot_index(), t);
    EXPECT_TRUE(started.graph() == tg.Snapshot(t)) << "start " << t;
    EXPECT_TRUE(started.graph() == advanced.graph()) << "start " << t;
    // The started cursor keeps stepping like one that walked there.
    const bool more = started.Advance();
    EXPECT_EQ(more, advanced.Advance()) << "start " << t;
    EXPECT_EQ(more, t + 1 < tg.num_snapshots());
    EXPECT_EQ(started.snapshot_index(), advanced.snapshot_index());
    EXPECT_TRUE(started.graph() == advanced.graph()) << "after " << t;
    EXPECT_TRUE(started.graph() == tg.Snapshot(started.snapshot_index()))
        << "after " << t;
  }
}

TEST(SnapshotCursorDeathTest, StartOutOfRangeChecks) {
  const TemporalGraph tg = ThreeSnapshots();
  EXPECT_DEATH(SnapshotCursor(&tg, -1), "snapshot -1 of 3");
  EXPECT_DEATH(SnapshotCursor(&tg, 3), "snapshot 3 of 3");
}

TEST(SnapshotCursorTest, GraphAddressStableAcrossAdvance) {
  const TemporalGraph tg = ThreeSnapshots();
  SnapshotCursor cursor(&tg);
  const Graph* addr = &cursor.graph();
  cursor.Advance();
  EXPECT_EQ(addr, &cursor.graph());
}

}  // namespace
}  // namespace crashsim
