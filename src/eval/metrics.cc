#include "eval/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/top_k.h"

namespace crashsim {

double MaxError(const std::vector<double>& estimate,
                const std::vector<double>& truth, NodeId source) {
  CRASHSIM_CHECK_EQ(estimate.size(), truth.size());
  double me = 0.0;
  for (size_t v = 0; v < estimate.size(); ++v) {
    if (static_cast<NodeId>(v) == source) continue;
    me = std::max(me, std::fabs(estimate[v] - truth[v]));
  }
  return me;
}

double MeanAbsoluteError(const std::vector<double>& estimate,
                         const std::vector<double>& truth, NodeId source) {
  CRASHSIM_CHECK_EQ(estimate.size(), truth.size());
  if (estimate.size() <= 1) return 0.0;
  double sum = 0.0;
  for (size_t v = 0; v < estimate.size(); ++v) {
    if (static_cast<NodeId>(v) == source) continue;
    sum += std::fabs(estimate[v] - truth[v]);
  }
  return sum / static_cast<double>(estimate.size() - 1);
}

double SetPrecision(const std::vector<NodeId>& truth,
                    const std::vector<NodeId>& result) {
  if (truth.empty() && result.empty()) return 1.0;
  std::vector<NodeId> common;
  std::set_intersection(truth.begin(), truth.end(), result.begin(),
                        result.end(), std::back_inserter(common));
  const size_t denom = std::max(truth.size(), result.size());
  return static_cast<double>(common.size()) / static_cast<double>(denom);
}

namespace {

std::vector<NodeId> TopKNodes(const std::vector<double>& scores, NodeId source,
                              int k) {
  std::vector<NodeId> nodes;
  for (const auto& [score, v] :
       SelectTopK<NodeId>(scores, source, static_cast<size_t>(k))) {
    nodes.push_back(v);
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

}  // namespace

double TopKPrecision(const std::vector<double>& estimate,
                     const std::vector<double>& truth, NodeId source, int k) {
  CRASHSIM_CHECK_EQ(estimate.size(), truth.size());
  CRASHSIM_CHECK_GT(k, 0);
  const std::vector<NodeId> top_est = TopKNodes(estimate, source, k);
  const std::vector<NodeId> top_truth = TopKNodes(truth, source, k);
  if (top_truth.empty()) return 1.0;
  std::vector<NodeId> common;
  std::set_intersection(top_est.begin(), top_est.end(), top_truth.begin(),
                        top_truth.end(), std::back_inserter(common));
  return static_cast<double>(common.size()) /
         static_cast<double>(top_truth.size());
}

}  // namespace crashsim
