#include "graph/graph_builder.h"

#include <algorithm>

#include "util/logging.h"

namespace crashsim {
namespace {

// Strictly ascending in (src, dst): sorted and duplicate-free.
bool IsSortedUnique(const std::vector<Edge>& edges) {
  return std::adjacent_find(edges.begin(), edges.end(),
                            [](const Edge& a, const Edge& b) {
                              return !(a < b);
                            }) == edges.end();
}

// Turns per-node counts stored at offsets[v + 1] into CSR offsets.
void PrefixSum(std::vector<int64_t>* offsets) {
  for (size_t v = 1; v < offsets->size(); ++v) {
    (*offsets)[v] += (*offsets)[v - 1];
  }
}

void SortUnique(std::vector<Edge>* edges) {
  std::sort(edges->begin(), edges->end());
  edges->erase(std::unique(edges->begin(), edges->end()), edges->end());
}

}  // namespace

void SortUniqueEdges(std::vector<Edge>* edges) {
  if (!IsSortedUnique(*edges)) SortUnique(edges);
}

GraphBuilder::GraphBuilder(NodeId num_nodes, bool undirected)
    : num_nodes_(num_nodes), undirected_(undirected) {
  CRASHSIM_CHECK_GE(num_nodes, 0);
}

void GraphBuilder::AddEdge(NodeId u, NodeId v) {
  CRASHSIM_CHECK(u >= 0 && u < num_nodes_) << "bad src " << u;
  CRASHSIM_CHECK(v >= 0 && v < num_nodes_) << "bad dst " << v;
  if (u == v) return;
  edges_.push_back(Edge{u, v});
  if (undirected_) edges_.push_back(Edge{v, u});
}

void GraphBuilder::AddEdges(const std::vector<Edge>& edges) {
  for (const Edge& e : edges) AddEdge(e.src, e.dst);
}

Graph GraphBuilder::Build() const {
  if (IsSortedUnique(edges_)) return FromSorted(edges_);
  std::vector<Edge> sorted = edges_;
  SortUnique(&sorted);
  return FromSorted(sorted);
}

Graph GraphBuilder::FromSorted(const std::vector<Edge>& sorted) const {
  Graph g;
  g.num_nodes_ = num_nodes_;
  g.undirected_ = undirected_;
  const size_t n = static_cast<size_t>(num_nodes_);

  // Out-CSR: the (src, dst)-sorted list is already row-major.
  g.out_offsets_.assign(n + 1, 0);
  g.out_neighbors_.resize(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    ++g.out_offsets_[static_cast<size_t>(sorted[i].src) + 1];
    g.out_neighbors_[i] = sorted[i].dst;
  }
  PrefixSum(&g.out_offsets_);

  // In-CSR via counting sort on dst; sources fill in ascending order because
  // the edge list is globally sorted by (src, dst).
  g.in_offsets_.assign(n + 1, 0);
  g.in_neighbors_.resize(sorted.size());
  for (const Edge& e : sorted) ++g.in_offsets_[static_cast<size_t>(e.dst) + 1];
  PrefixSum(&g.in_offsets_);
  std::vector<int64_t> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (const Edge& e : sorted) {
    g.in_neighbors_[static_cast<size_t>(cursor[static_cast<size_t>(e.dst)]++)] =
        e.src;
  }
  return g;
}

Graph BuildGraph(NodeId num_nodes, const std::vector<Edge>& edges,
                 bool undirected) {
  GraphBuilder b(num_nodes, undirected);
  b.AddEdges(edges);
  return b.Build();
}

}  // namespace crashsim
