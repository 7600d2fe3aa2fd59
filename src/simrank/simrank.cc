#include "simrank/simrank.h"

#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace crashsim {

Status SimRankOptions::Validate() const {
  if (!(c > 0.0 && c < 1.0)) {
    return InvalidArgumentError(
        StrFormat("decay factor c must be in (0, 1), got %g", c));
  }
  if (!(epsilon > 0.0)) {
    return InvalidArgumentError(
        StrFormat("epsilon must be > 0, got %g", epsilon));
  }
  if (!(delta > 0.0 && delta < 1.0)) {
    return InvalidArgumentError(
        StrFormat("delta must be in (0, 1), got %g", delta));
  }
  if (trials_override < 0) {
    return InvalidArgumentError(
        StrFormat("trials_override must be >= 0, got %lld",
                  static_cast<long long>(trials_override)));
  }
  if (trials_cap < 0) {
    return InvalidArgumentError(StrFormat(
        "trials_cap must be >= 0, got %lld", static_cast<long long>(trials_cap)));
  }
  if (max_walk_length < 0) {
    return InvalidArgumentError(
        StrFormat("max_walk_length must be >= 0, got %d", max_walk_length));
  }
  return OkStatus();
}

Status ValidateNodeId(NodeId v, NodeId n, const char* what) {
  if (v < 0 || v >= n) {
    return InvalidArgumentError(
        StrFormat("%s id %lld out of range [0, %lld)", what,
                  static_cast<long long>(v), static_cast<long long>(n)));
  }
  return OkStatus();
}

std::vector<double> SimRankAlgorithm::SingleSource(NodeId u) {
  PartialResult result = SingleSourceImpl(u, nullptr);
  CRASHSIM_CHECK(result.status.ok()) << result.status;
  return std::move(result.scores);
}

std::vector<double> SimRankAlgorithm::Partial(
    NodeId u, std::span<const NodeId> candidates) {
  PartialResult result = PartialImpl(u, candidates, nullptr);
  CRASHSIM_CHECK(result.status.ok()) << result.status;
  return std::move(result.scores);
}

PartialResult SimRankAlgorithm::PartialImpl(NodeId u,
                                            std::span<const NodeId> candidates,
                                            QueryContext* ctx) {
  PartialResult result;
  for (NodeId v : candidates) {
    result.status = ValidateNodeId(v, graph()->num_nodes(), "candidate");
    if (!result.status.ok()) return result;
  }
  result = SingleSourceImpl(u, ctx);
  if (result.scores.empty()) return result;  // rejected source
  const std::vector<double> all = std::move(result.scores);
  result.scores.clear();
  for (NodeId v : candidates) {
    result.scores.push_back(all[static_cast<size_t>(v)]);
  }
  return result;
}

}  // namespace crashsim
