#include "core/temporal_query.h"

#include "util/logging.h"

namespace crashsim {

const char* ToString(TemporalQueryKind kind) {
  switch (kind) {
    case TemporalQueryKind::kTrendIncreasing: return "trend-increasing";
    case TemporalQueryKind::kTrendDecreasing: return "trend-decreasing";
    case TemporalQueryKind::kThreshold: return "threshold";
  }
  return "unknown";
}

StatusOr<TemporalQueryKind> ParseTemporalQueryKind(std::string_view name) {
  if (name == "threshold") return TemporalQueryKind::kThreshold;
  if (name == "increasing") return TemporalQueryKind::kTrendIncreasing;
  if (name == "decreasing") return TemporalQueryKind::kTrendDecreasing;
  return InvalidArgumentError("unknown kind '" + std::string(name) +
                              "' (threshold | increasing | decreasing)");
}

int ResolveEndSnapshot(int64_t end, int num_snapshots) {
  return end < 0 ? num_snapshots - 1 : static_cast<int>(end);
}

bool TemporalStepSatisfied(const TemporalQuery& q, bool first, double prev,
                           double cur) {
  switch (q.kind) {
    case TemporalQueryKind::kThreshold:
      return cur > q.theta;
    case TemporalQueryKind::kTrendIncreasing:
      return first || cur >= prev - q.trend_tolerance;
    case TemporalQueryKind::kTrendDecreasing:
      return first || cur <= prev + q.trend_tolerance;
  }
  return false;
}

CandidateFilter::CandidateFilter(const TemporalQuery& query, NodeId num_nodes)
    : query_(query), prev_scores_(static_cast<size_t>(num_nodes), 0.0) {
  candidates_.reserve(static_cast<size_t>(num_nodes) - 1);
  for (NodeId v = 0; v < num_nodes; ++v) {
    if (v != query.source) candidates_.push_back(v);
  }
}

size_t CandidateFilter::Observe(const std::vector<double>& scores) {
  CRASHSIM_CHECK_EQ(scores.size(), candidates_.size());
  std::vector<NodeId> kept;
  kept.reserve(candidates_.size());
  size_t dropped = 0;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    const NodeId v = candidates_[i];
    const double prev = prev_scores_[static_cast<size_t>(v)];
    if (TemporalStepSatisfied(query_, first_, prev, scores[i])) {
      kept.push_back(v);
      prev_scores_[static_cast<size_t>(v)] = scores[i];
    } else {
      ++dropped;
    }
  }
  candidates_.swap(kept);
  first_ = false;
  return dropped;
}

}  // namespace crashsim
