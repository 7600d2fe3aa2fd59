#include "graph/temporal_graph.h"

#include <utility>

#include "graph/graph_builder.h"
#include "graph/snapshot_diff.h"
#include "util/logging.h"

namespace crashsim {

Graph TemporalGraph::Snapshot(int t) const {
  return BuildGraph(num_nodes_, SnapshotEdges(t), /*undirected=*/false);
}

std::vector<Edge> TemporalGraph::SnapshotEdges(int t) const {
  CRASHSIM_CHECK(t >= 0 && t < num_snapshots()) << "snapshot " << t;
  std::vector<Edge> edges;
  for (int i = 0; i <= t; ++i) ApplyDelta(deltas_[static_cast<size_t>(i)], &edges);
  return edges;
}

TemporalGraphBuilder::TemporalGraphBuilder(NodeId num_nodes, bool undirected)
    : num_nodes_(num_nodes), undirected_(undirected) {
  CRASHSIM_CHECK_GE(num_nodes, 0);
}

void TemporalGraphBuilder::Normalize(std::vector<Edge>* edges) const {
  const size_t listed = edges->size();
  size_t kept = 0;
  for (size_t i = 0; i < listed; ++i) {
    const Edge e = (*edges)[i];
    CRASHSIM_CHECK(e.src >= 0 && e.src < num_nodes_) << "bad src " << e.src;
    CRASHSIM_CHECK(e.dst >= 0 && e.dst < num_nodes_) << "bad dst " << e.dst;
    if (e.src != e.dst) (*edges)[kept++] = e;
  }
  edges->resize(kept);
  if (undirected_) {
    edges->reserve(2 * kept);
    for (size_t i = 0; i < kept; ++i) {
      const Edge e = (*edges)[i];
      edges->push_back(Edge{e.dst, e.src});
    }
  }
  SortUniqueEdges(edges);
}

void TemporalGraphBuilder::AddSnapshot(std::vector<Edge> edges) {
  Normalize(&edges);
  deltas_.push_back(DiffEdgeSets(current_, edges));
  current_.swap(edges);
}

void TemporalGraphBuilder::AddDelta(const std::vector<Edge>& added,
                                    const std::vector<Edge>& removed) {
  CRASHSIM_CHECK_GT(deltas_.size(), 0u)
      << "AddDelta requires an initial snapshot";
  std::vector<Edge> next = current_;
  EdgeDelta raw;
  raw.added = added;
  raw.removed = removed;
  Normalize(&raw.added);
  Normalize(&raw.removed);
  ApplyDelta(raw, &next);
  deltas_.push_back(DiffEdgeSets(current_, next));
  current_.swap(next);
}

TemporalGraph TemporalGraphBuilder::Build() const& {
  TemporalGraph tg;
  tg.num_nodes_ = num_nodes_;
  tg.undirected_ = undirected_;
  tg.deltas_ = deltas_;
  return tg;
}

TemporalGraph TemporalGraphBuilder::Build() && {
  TemporalGraph tg;
  tg.num_nodes_ = num_nodes_;
  tg.undirected_ = undirected_;
  tg.deltas_ = std::move(deltas_);
  return tg;
}

SnapshotCursor::SnapshotCursor(const TemporalGraph* tg, int start)
    : tg_(tg), index_(start) {
  CRASHSIM_CHECK(start >= 0 && start < tg->num_snapshots())
      << "snapshot " << start << " of " << tg->num_snapshots();
  for (int t = 0; t <= start; ++t) ApplyDelta(tg_->Delta(t), &edges_);
  Rebuild();
}

bool SnapshotCursor::Advance() {
  if (index_ + 1 >= tg_->num_snapshots()) return false;
  ++index_;
  ApplyDelta(tg_->Delta(index_), &edges_);
  previous_ = std::move(graph_);
  Rebuild();
  return true;
}

void SnapshotCursor::Rebuild() {
  graph_ = BuildGraph(tg_->num_nodes(), edges_, /*undirected=*/false);
}

}  // namespace crashsim
