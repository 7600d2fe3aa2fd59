#include "simrank/topk.h"

#include "util/logging.h"
#include "util/top_k.h"

namespace crashsim {

TopKResult TopKSimRank(SimRankAlgorithm* algorithm, NodeId source, int k) {
  CRASHSIM_CHECK_GT(k, 0);
  return SelectTopK<NodeId>(algorithm->SingleSource(source), source,
                           static_cast<size_t>(k));
}

TopKResult TopKSimRank(SimRankAlgorithm* algorithm, NodeId source, int k,
                       std::span<const NodeId> candidates) {
  CRASHSIM_CHECK_GT(k, 0);
  const std::vector<double> scores = algorithm->Partial(source, candidates);
  TopK<NodeId> top(static_cast<size_t>(k));
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i] == source) continue;
    top.Offer(scores[i], candidates[i]);
  }
  return top.Sorted();
}

}  // namespace crashsim
