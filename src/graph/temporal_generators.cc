#include "graph/temporal_generators.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "graph/graph_builder.h"
#include "util/logging.h"

namespace crashsim {
namespace {

// Collapses a (possibly symmetrised) directed edge set to canonical
// undirected pairs (src < dst) when `undirected`, otherwise returns as-is.
std::vector<Edge> CanonicalEdges(const Graph& g) {
  std::vector<Edge> edges;
  for (const Edge& e : g.Edges()) {
    if (g.undirected()) {
      if (e.src < e.dst) edges.push_back(e);
    } else {
      edges.push_back(e);
    }
  }
  return edges;
}

// Samples a degree-biased endpoint: with probability `pref` an endpoint of a
// uniformly chosen existing edge (degree-proportional), else uniform node.
NodeId BiasedEndpoint(const std::vector<Edge>& edges, NodeId n, double pref,
                      Rng* rng) {
  if (!edges.empty() && rng->Bernoulli(pref)) {
    const Edge& e = edges[rng->NextBounded(edges.size())];
    return rng->Bernoulli(0.5) ? e.src : e.dst;
  }
  return static_cast<NodeId>(rng->NextBounded(static_cast<uint64_t>(n)));
}

}  // namespace

TemporalGraph EvolveWithChurn(const Graph& base, const ChurnOptions& options,
                              Rng* rng) {
  CRASHSIM_CHECK_GE(options.num_snapshots, 1);
  const NodeId n = base.num_nodes();
  const bool undirected = base.undirected();
  const double add_rate =
      options.add_rate < 0 ? options.churn_rate : options.add_rate;

  std::vector<Edge> current = CanonicalEdges(base);
  std::unordered_set<Edge, EdgeHash> current_set(current.begin(),
                                                 current.end());

  TemporalGraphBuilder builder(n, undirected);
  builder.AddSnapshot(current);

  for (int t = 1; t < options.num_snapshots; ++t) {
    // Remove a churn_rate fraction of current edges.
    const size_t remove_count = static_cast<size_t>(
        static_cast<double>(current.size()) * options.churn_rate);
    for (size_t i = 0; i < remove_count && !current.empty(); ++i) {
      const size_t idx = rng->NextBounded(current.size());
      current_set.erase(current[idx]);
      current[idx] = current.back();
      current.pop_back();
    }
    // Add new edges with degree-biased endpoints.
    const size_t add_count = static_cast<size_t>(
        static_cast<double>(current.size()) * add_rate) + (add_rate > 0 ? 1 : 0);
    size_t added = 0;
    size_t attempts = 0;
    while (added < add_count && attempts < add_count * 30 + 100) {
      ++attempts;
      NodeId u = BiasedEndpoint(current, n, options.preferential_prob, rng);
      NodeId v = BiasedEndpoint(current, n, options.preferential_prob, rng);
      if (u == v) continue;
      if (undirected && u > v) std::swap(u, v);
      if (current_set.insert(Edge{u, v}).second) {
        current.push_back(Edge{u, v});
        ++added;
      }
    }
    builder.AddSnapshot(current);
  }
  return std::move(builder).Build();
}

TemporalGraph GrowTemporalGraph(NodeId n, bool undirected,
                                const GrowthOptions& options, Rng* rng) {
  CRASHSIM_CHECK_GE(options.num_snapshots, 1);
  CRASHSIM_CHECK_GE(n, 4);
  const NodeId initial = std::max<NodeId>(
      2, static_cast<NodeId>(static_cast<double>(n) * options.initial_fraction));

  // Arrival schedule: nodes initial..n-1 spread uniformly over snapshots.
  std::vector<Edge> current;
  std::unordered_set<Edge, EdgeHash> current_set;
  auto add_edge = [&](NodeId u, NodeId v) {
    if (u == v) return false;
    if (undirected && u > v) std::swap(u, v);
    if (!current_set.insert(Edge{u, v}).second) return false;
    current.push_back(Edge{u, v});
    return true;
  };
  // Attaches a node with the target number of degree-biased edges, retrying
  // duplicates so the m/n regime of the modelled dataset is preserved.
  auto attach = [&](NodeId v, NodeId population) {
    for (int e = 0; e < options.edges_per_arrival; ++e) {
      bool added = false;
      for (int attempt = 0; attempt < 10 && !added; ++attempt) {
        NodeId u = BiasedEndpoint(current, population, 0.8, rng);
        if (u == v) u = static_cast<NodeId>(v > 0 ? v - 1 : v + 1);
        // Directed AS-style links get a random orientation; a strict
        // new->old direction would leave arriving nodes without
        // in-neighbours and kill sqrt(c)-walks at the frontier.
        if (!undirected && rng->Bernoulli(0.5)) {
          added = add_edge(u, v);
        } else {
          added = add_edge(v, u);
        }
      }
    }
  };

  // Bootstrap: initial nodes attach like arrivals (the paper's datasets are
  // already dense at the first snapshot).
  for (NodeId v = 1; v < initial; ++v) attach(v, v);

  TemporalGraphBuilder builder(n, undirected);
  builder.AddSnapshot(current);

  const NodeId arriving = static_cast<NodeId>(n - initial);
  NodeId next_node = initial;
  for (int t = 1; t < options.num_snapshots; ++t) {
    // Withdraw a few edges (AS links flapping) and rewire as many: links
    // flap rather than drain, so the edge count stays on its growth curve.
    const size_t withdraw = static_cast<size_t>(
        static_cast<double>(current.size()) * options.withdraw_rate);
    for (size_t i = 0; i < withdraw && !current.empty(); ++i) {
      const size_t idx = rng->NextBounded(current.size());
      current_set.erase(current[idx]);
      current[idx] = current.back();
      current.pop_back();
    }
    const NodeId active = std::max<NodeId>(next_node, 2);
    for (size_t i = 0; i < withdraw; ++i) {
      for (int attempt = 0; attempt < 10; ++attempt) {
        const NodeId a = BiasedEndpoint(current, active, 0.8, rng);
        const NodeId b = BiasedEndpoint(current, active, 0.8, rng);
        if (a != b && add_edge(a, b)) break;
      }
    }
    // Arrivals due by snapshot t.
    const NodeId due = static_cast<NodeId>(
        initial + static_cast<int64_t>(arriving) * t /
                      std::max(1, options.num_snapshots - 1));
    while (next_node < due) {
      attach(next_node, next_node);
      ++next_node;
    }
    builder.AddSnapshot(current);
  }
  return std::move(builder).Build();
}

}  // namespace crashsim
