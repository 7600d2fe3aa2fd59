#ifndef CRASHSIM_GRAPH_GRAPH_BUILDER_H_
#define CRASHSIM_GRAPH_GRAPH_BUILDER_H_

#include <vector>

#include "graph/edge.h"
#include "graph/graph.h"

namespace crashsim {

// Accumulates edges and produces an immutable CSR Graph.
//
//   GraphBuilder b(/*num_nodes=*/5, /*undirected=*/false);
//   b.AddEdge(0, 1);
//   Graph g = b.Build();
//
// Duplicate edges are collapsed and self-loops dropped (SimRank's definition
// assumes a simple graph: a self-loop would make every walk from the node
// able to stay put, which none of the reference algorithms model). For
// undirected graphs each input edge is stored in both directions.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes, bool undirected = false);

  GraphBuilder(const GraphBuilder&) = delete;
  GraphBuilder& operator=(const GraphBuilder&) = delete;

  // Adds edge u -> v (plus v -> u when undirected). Node ids must be in
  // [0, num_nodes). Self-loops are silently ignored.
  void AddEdge(NodeId u, NodeId v);

  // Bulk variant of AddEdge.
  void AddEdges(const std::vector<Edge>& edges);

  NodeId num_nodes() const { return num_nodes_; }
  // Edges staged so far, before dedup (directed count; undirected inputs
  // already doubled).
  size_t staged_edges() const { return edges_.size(); }

  // Sorts, deduplicates, and builds both CSR directions. The builder can be
  // reused afterwards (staged edges are kept). Already sorted,
  // duplicate-free staged edges are neither copied nor sorted: the build is
  // then O(n + m).
  Graph Build() const;

 private:
  // Both CSR directions of a strictly ascending (src, dst) list of staged
  // edges.
  Graph FromSorted(const std::vector<Edge>& sorted) const;

  NodeId num_nodes_;
  bool undirected_;
  std::vector<Edge> edges_;
};

// Convenience: builds a graph directly from an edge vector.
Graph BuildGraph(NodeId num_nodes, const std::vector<Edge>& edges,
                 bool undirected = false);

// Sorts `edges` by (src, dst) and drops duplicates; an already sorted,
// duplicate-free list is left as it is after one O(m) check.
void SortUniqueEdges(std::vector<Edge>* edges);

}  // namespace crashsim

#endif  // CRASHSIM_GRAPH_GRAPH_BUILDER_H_
