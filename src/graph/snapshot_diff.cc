#include "graph/snapshot_diff.h"

#include <algorithm>

namespace crashsim {

EdgeDelta DiffEdgeSets(const std::vector<Edge>& before,
                       const std::vector<Edge>& after) {
  EdgeDelta delta;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(delta.added));
  std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                      std::back_inserter(delta.removed));
  return delta;
}

void ApplyDelta(const EdgeDelta& delta, std::vector<Edge>* edges) {
  if (!delta.removed.empty()) {
    std::vector<Edge> kept;
    kept.reserve(edges->size());
    std::set_difference(edges->begin(), edges->end(), delta.removed.begin(),
                        delta.removed.end(), std::back_inserter(kept));
    edges->swap(kept);
  }
  if (!delta.added.empty()) {
    std::vector<Edge> merged;
    merged.reserve(edges->size() + delta.added.size());
    std::set_union(edges->begin(), edges->end(), delta.added.begin(),
                   delta.added.end(), std::back_inserter(merged));
    edges->swap(merged);
  }
}

std::vector<int> BoundedHops(const Graph& g, const std::vector<NodeId>& seeds,
                             int max_depth, EdgeDirection direction) {
  std::vector<int> hops(static_cast<size_t>(g.num_nodes()), max_depth + 1);
  std::vector<NodeId> frontier;
  for (NodeId s : seeds) {
    if (hops[static_cast<size_t>(s)] != 0) {
      hops[static_cast<size_t>(s)] = 0;
      frontier.push_back(s);
    }
  }
  std::vector<NodeId> next;
  for (int depth = 1; depth <= max_depth && !frontier.empty(); ++depth) {
    for (NodeId u : frontier) {
      const auto neighbors = direction == EdgeDirection::kOut
                                 ? g.OutNeighbors(u)
                                 : g.InNeighbors(u);
      for (NodeId v : neighbors) {
        if (hops[static_cast<size_t>(v)] > depth) {
          hops[static_cast<size_t>(v)] = depth;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
    next.clear();
  }
  return hops;
}

}  // namespace crashsim
