#include "graph/temporal_graph.h"

#include <algorithm>

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

int64_t TemporalGraph::TotalEvents() const {
  int64_t total = 0;
  for (const EdgeDelta& d : deltas_) total += static_cast<int64_t>(d.Size());
  return total;
}

TemporalGraphBuilder::TemporalGraphBuilder(NodeId num_nodes, bool undirected)
    : num_nodes_(num_nodes), undirected_(undirected) {
  CRASHSIM_CHECK_GE(num_nodes, 0);
}

std::vector<Edge> TemporalGraphBuilder::Normalize(
    const std::vector<Edge>& edges) const {
  std::vector<Edge> out;
  out.reserve(edges.size() * (undirected_ ? 2 : 1));
  for (const Edge& e : edges) {
    CRASHSIM_CHECK(e.src >= 0 && e.src < num_nodes_) << "bad src " << e.src;
    CRASHSIM_CHECK(e.dst >= 0 && e.dst < num_nodes_) << "bad dst " << e.dst;
    if (e.src == e.dst) continue;
    out.push_back(e);
    if (undirected_) out.push_back(Edge{e.dst, e.src});
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void TemporalGraphBuilder::AddSnapshot(const std::vector<Edge>& edges) {
  std::vector<Edge> next = Normalize(edges);
  deltas_.push_back(DiffEdgeSets(current_, next));
  current_.swap(next);
}

void TemporalGraphBuilder::AddDelta(const std::vector<Edge>& added,
                                    const std::vector<Edge>& removed) {
  CRASHSIM_CHECK_GT(deltas_.size(), 0u)
      << "AddDelta requires an initial snapshot";
  std::vector<Edge> next = current_;
  EdgeDelta raw;
  raw.added = Normalize(added);
  raw.removed = Normalize(removed);
  ApplyDelta(raw, &next);
  deltas_.push_back(DiffEdgeSets(current_, next));
  current_.swap(next);
}

TemporalGraph TemporalGraphBuilder::Build() const {
  TemporalGraph tg;
  tg.num_nodes_ = num_nodes_;
  tg.undirected_ = undirected_;
  tg.deltas_ = deltas_;
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
  Rebuild();
  return true;
}

void SnapshotCursor::Rebuild() {
  graph_ = BuildGraph(tg_->num_nodes(), edges_, /*undirected=*/false);
}

}  // namespace crashsim
