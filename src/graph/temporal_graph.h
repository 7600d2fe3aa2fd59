#ifndef CRASHSIM_GRAPH_TEMPORAL_GRAPH_H_
#define CRASHSIM_GRAPH_TEMPORAL_GRAPH_H_

#include <optional>
#include <vector>

#include "graph/edge.h"
#include "graph/graph.h"

namespace crashsim {

// Edge-set difference between two adjacent snapshots: the Δ of Section IV.
// Both vectors are sorted and disjoint.
struct EdgeDelta {
  std::vector<Edge> added;
  std::vector<Edge> removed;

  bool Empty() const { return added.empty() && removed.empty(); }
  size_t Size() const { return added.size() + removed.size(); }
};

// Temporal graph per Definition 2: a fixed node set V and a sequence of
// snapshots G_1..G_T that differ only in their edge sets. Storage is
// delta-encoded: the edges of G_1 plus the EdgeDelta between each adjacent
// pair, which is exactly what CrashSim-T's pruning rules consume. Snapshots
// are materialised on demand.
//
// All edges are stored in directed form; for undirected temporal graphs both
// orientations appear in every snapshot and delta (the builder symmetrises).
class TemporalGraph {
 public:
  TemporalGraph() = default;

  NodeId num_nodes() const { return num_nodes_; }
  int num_snapshots() const { return static_cast<int>(deltas_.size()); }
  bool undirected() const { return undirected_; }

  // Delta between snapshot t-1 and t (1-based snapshots; Delta(0) encodes
  // G_1 itself as pure additions).
  const EdgeDelta& Delta(int t) const { return deltas_[static_cast<size_t>(t)]; }

  // Materialises snapshot t, 0-based in [0, num_snapshots). O(edges at t).
  Graph Snapshot(int t) const;

  // Sorted directed edge set of snapshot t.
  std::vector<Edge> SnapshotEdges(int t) const;

 private:
  friend class TemporalGraphBuilder;

  NodeId num_nodes_ = 0;
  bool undirected_ = false;
  std::vector<EdgeDelta> deltas_;  // deltas_[0].added == edges of G_1
};

// Builds a TemporalGraph from per-snapshot edge lists or explicit deltas.
//
//   TemporalGraphBuilder b(n, /*undirected=*/true);
//   b.AddSnapshot(edges_t1);
//   b.AddSnapshot(edges_t2);   // delta computed internally
//   TemporalGraph tg = std::move(b).Build();
class TemporalGraphBuilder {
 public:
  explicit TemporalGraphBuilder(NodeId num_nodes, bool undirected = false);

  // Appends a snapshot given its full (directed or to-be-symmetrised) edge
  // list; self-loops and duplicates are dropped. The list is normalised in
  // place, so a moved-in list is not copied.
  void AddSnapshot(std::vector<Edge> edges);

  // Appends a snapshot expressed as a delta on the previous snapshot. Must
  // not be the first snapshot. Additions already present and removals not
  // present are ignored after normalisation.
  void AddDelta(const std::vector<Edge>& added, const std::vector<Edge>& removed);

  int num_snapshots() const { return static_cast<int>(deltas_.size()); }

  // Copies the deltas; the rvalue form moves them out of the builder, so a
  // loader holds them once.
  TemporalGraph Build() const&;
  TemporalGraph Build() &&;

 private:
  // Normalises an edge list in place: drops self-loops/dups, symmetrises if
  // needed, sorts.
  void Normalize(std::vector<Edge>* edges) const;

  NodeId num_nodes_;
  bool undirected_;
  std::vector<EdgeDelta> deltas_;
  std::vector<Edge> current_;  // sorted edges of the latest snapshot
};

// Incremental cursor over a TemporalGraph's snapshots. It keeps the current
// snapshot's sorted edge set, merges each delta into it in O(m_t + |Δ_t|)
// and builds the CSR once per position: no O(Σ events) re-scan per
// snapshot, and no T graphs kept alive. Opening at snapshot `start` merges
// deltas 0..start and builds the CSR once, so a window that begins late pays
// one build, not one per skipped snapshot. Advance() moves the current CSR
// into previous() before it builds the next, so a caller comparing adjacent
// snapshots holds both without copying either.
class SnapshotCursor {
 public:
  // Positions at snapshot start; CHECK-fails unless 0 <= start <
  // num_snapshots().
  explicit SnapshotCursor(const TemporalGraph* tg, int start = 0);

  int snapshot_index() const { return index_; }
  const Graph& graph() const { return graph_; }
  // Snapshot snapshot_index() - 1 as graph() held it before the last
  // Advance(); nullptr until the first Advance().
  const Graph* previous() const {
    return previous_.has_value() ? &*previous_ : nullptr;
  }

  // Advances to the next snapshot; returns false when already at the last.
  bool Advance();

 private:
  void Rebuild();

  const TemporalGraph* tg_;
  int index_ = 0;
  std::vector<Edge> edges_;  // sorted
  Graph graph_;
  std::optional<Graph> previous_;
};

}  // namespace crashsim

#endif  // CRASHSIM_GRAPH_TEMPORAL_GRAPH_H_
