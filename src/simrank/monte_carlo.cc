#include "simrank/monte_carlo.h"

#include <algorithm>
#include <cmath>

#include "simrank/walk.h"

namespace crashsim {

PairwiseMonteCarlo::PairwiseMonteCarlo(const SimRankOptions& options)
    : options_(options),
      sqrt_c_(std::sqrt(options.c)),
      max_walk_length_(options.max_walk_length > 0 ? options.max_walk_length
                                                   : 64),
      rng_(options.seed) {}

Status PairwiseMonteCarlo::Bind(const Graph* g) {
  RETURN_IF_ERROR(options_.Validate());
  set_graph(g);
  return OkStatus();
}

int64_t PairwiseMonteCarlo::TrialsFor(NodeId n) const {
  if (options_.trials_override > 0) return options_.trials_override;
  int64_t nr = ProbeSimTrialCount(options_.c, options_.epsilon, options_.delta, n);
  if (options_.trials_cap > 0) nr = std::min(nr, options_.trials_cap);
  return nr;
}

PartialResult PairwiseMonteCarlo::PartialImpl(
    NodeId u, std::span<const NodeId> candidates, QueryContext* /*ctx*/) {
  const Graph& g = *graph();
  PartialResult result;
  result.status = ValidateNodeId(u, g.num_nodes(), "source");
  for (size_t ci = 0; ci < candidates.size() && result.status.ok(); ++ci) {
    result.status = ValidateNodeId(candidates[ci], g.num_nodes(), "candidate");
  }
  if (!result.status.ok()) return result;
  const int64_t trials = TrialsFor(g.num_nodes());
  result.trials_target = trials;
  result.trials_done = trials;
  std::vector<double>& scores = result.scores;
  scores.assign(candidates.size(), 0.0);
  std::vector<NodeId> wu;
  std::vector<NodeId> wv;
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    const NodeId v = candidates[ci];
    if (v == u) {
      scores[ci] = 1.0;
      continue;
    }
    int64_t meetings = 0;
    for (int64_t k = 0; k < trials; ++k) {
      SampleSqrtCWalk(g, u, sqrt_c_, max_walk_length_, &rng_, &wu);
      SampleSqrtCWalk(g, v, sqrt_c_, max_walk_length_, &rng_, &wv);
      const size_t steps = std::min(wu.size(), wv.size());
      for (size_t t = 1; t < steps; ++t) {
        if (wu[t] == wv[t]) {
          ++meetings;
          break;
        }
      }
    }
    scores[ci] =
        static_cast<double>(meetings) / static_cast<double>(trials);
  }
  return result;
}

PartialResult PairwiseMonteCarlo::SingleSourceImpl(NodeId u,
                                                   QueryContext* ctx) {
  std::vector<NodeId> all(static_cast<size_t>(graph()->num_nodes()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<NodeId>(i);
  return PartialImpl(u, all, ctx);
}

}  // namespace crashsim
