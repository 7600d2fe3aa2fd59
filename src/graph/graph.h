#ifndef CRASHSIM_GRAPH_GRAPH_H_
#define CRASHSIM_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge.h"

namespace crashsim {

// Immutable directed graph in CSR form with both in- and out-adjacency.
// SimRank walks traverse in-neighbours; the ProbeSim probe and the pruning
// rules traverse out-neighbours, so both directions are materialised once at
// build time. Adjacency lists are sorted, enabling O(log d) HasEdge and
// deterministic iteration order.
//
// Instances are produced by GraphBuilder (or the generators/IO helpers) and
// are immutable afterwards; they can be shared freely across threads.
class Graph {
 public:
  Graph() = default;

  // Movable and copyable (copies are deep; snapshots of temporal graphs rely
  // on cheap moves).
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  NodeId num_nodes() const { return num_nodes_; }
  // Number of *directed* edges stored (an undirected input edge counts twice).
  int64_t num_edges() const { return static_cast<int64_t>(in_neighbors_.size()); }
  bool undirected() const { return undirected_; }

  // In-neighbours of v, sorted ascending. I(v) in the paper.
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {in_neighbors_.data() + in_offsets_[v],
            in_neighbors_.data() + in_offsets_[v + 1]};
  }
  // Out-neighbours of v, sorted ascending.
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return {out_neighbors_.data() + out_offsets_[v],
            out_neighbors_.data() + out_offsets_[v + 1]};
  }

  int32_t InDegree(NodeId v) const {
    return static_cast<int32_t>(in_offsets_[v + 1] - in_offsets_[v]);
  }
  int32_t OutDegree(NodeId v) const {
    return static_cast<int32_t>(out_offsets_[v + 1] - out_offsets_[v]);
  }

  // True if the directed edge u -> v exists. O(log outdeg(u)).
  bool HasEdge(NodeId u, NodeId v) const;

  // All directed edges in (src, dst) order. O(m) fresh vector.
  std::vector<Edge> Edges() const;

  // Structural equality (same node count and edge multiset).
  friend bool operator==(const Graph& a, const Graph& b);

 private:
  friend class GraphBuilder;

  NodeId num_nodes_ = 0;
  bool undirected_ = false;
  // CSR arrays; offsets have num_nodes_ + 1 entries.
  std::vector<int64_t> in_offsets_{0};
  std::vector<NodeId> in_neighbors_;
  std::vector<int64_t> out_offsets_{0};
  std::vector<NodeId> out_neighbors_;
};

}  // namespace crashsim

#endif  // CRASHSIM_GRAPH_GRAPH_H_
