#ifndef CRASHSIM_GRAPH_SNAPSHOT_DIFF_H_
#define CRASHSIM_GRAPH_SNAPSHOT_DIFF_H_

#include <vector>

#include "graph/edge.h"
#include "graph/graph.h"
#include "graph/temporal_graph.h"

namespace crashsim {

// Computes the EdgeDelta turning sorted edge set `before` into sorted edge
// set `after` (added = after \ before, removed = before \ after).
EdgeDelta DiffEdgeSets(const std::vector<Edge>& before,
                       const std::vector<Edge>& after);

// Applies a delta to a sorted edge set in place, keeping it sorted. Removals
// not present and additions already present are tolerated (no-ops).
void ApplyDelta(const EdgeDelta& delta, std::vector<Edge>* edges);

// Which adjacency a bounded BFS follows: out-edges or in-edges.
enum class EdgeDirection { kOut, kIn };

// Hop distance from the nearest of `seeds` to every node of `g`, by one
// multi-source BFS along `direction` that stops after `max_depth` hops.
// Seeds read 0; a node more than `max_depth` hops from every seed, or not
// reachable at all, reads max_depth + 1. Seeds may repeat; an empty seed set
// leaves every node at max_depth + 1.
//
// CrashSim-T asks it two things. Over out-edges from the heads y of the
// changed edges x->y, distance <= l_max - 1 is Theorem 2's affected area (a
// changed edge perturbs the sqrt(c)-walks of exactly the nodes that reach y)
// and distance <= l_max bounds the candidates whose revReach tree can
// change. Over in-edges from the source, distance <= l_max is the support of
// the source's revReach tree: a changed edge x->y can alter it only if y is
// in that set.
std::vector<int> BoundedHops(const Graph& g, const std::vector<NodeId>& seeds,
                             int max_depth, EdgeDirection direction);

}  // namespace crashsim

#endif  // CRASHSIM_GRAPH_SNAPSHOT_DIFF_H_
