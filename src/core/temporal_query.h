#ifndef CRASHSIM_CORE_TEMPORAL_QUERY_H_
#define CRASHSIM_CORE_TEMPORAL_QUERY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/edge.h"
#include "util/status.h"

namespace crashsim {

// Temporal SimRank query kinds (Definitions 4-5).
enum class TemporalQueryKind {
  kTrendIncreasing,  // s_t(u,v) non-decreasing across the interval
  kTrendDecreasing,  // s_t(u,v) non-increasing across the interval
  kThreshold,        // s_t(u,v) > theta at every instant
};

const char* ToString(TemporalQueryKind kind);

// The kind named on the command line and on the wire: threshold |
// increasing | decreasing; kInvalidArgument for any other name.
[[nodiscard]] StatusOr<TemporalQueryKind> ParseTemporalQueryKind(
    std::string_view name);

// The last snapshot of a query interval given as requested: any negative
// `end` means the final snapshot of a graph with `num_snapshots`.
int ResolveEndSnapshot(int64_t end, int num_snapshots);

// A temporal SimRank query (Definition 3): find every node v whose score
// sequence against `source` satisfies the requirement at every snapshot of
// [begin_snapshot, end_snapshot] (0-based, inclusive).
struct TemporalQuery {
  TemporalQueryKind kind = TemporalQueryKind::kThreshold;
  NodeId source = 0;
  int begin_snapshot = 0;
  int end_snapshot = 0;
  // Threshold queries: required lower bound on every s_t(u, v).
  double theta = 0.05;
  // Trend queries: |slack| tolerated against monotonicity, absorbing
  // Monte-Carlo noise; 0 = exact non-strict monotonicity.
  double trend_tolerance = 0.0;
};

// Evaluates one step of the query predicate.
//  * threshold: cur > theta;
//  * trend increasing: cur >= prev - tol; decreasing: cur <= prev + tol.
// `first` marks snapshot begin_snapshot, where trend queries have no
// predecessor and accept unconditionally.
bool TemporalStepSatisfied(const TemporalQuery& q, bool first, double prev,
                           double cur);

// Shared candidate bookkeeping for every temporal engine: holds the current
// candidate set Omega, each candidate's previous-snapshot score, and applies
// the per-snapshot filter. Candidates only ever leave the set (the paper's
// opportunity (ii)).
class CandidateFilter {
 public:
  // Starts with Omega = all nodes except the source.
  CandidateFilter(const TemporalQuery& query, NodeId num_nodes);

  // Current candidates (sorted ascending).
  const std::vector<NodeId>& candidates() const { return candidates_; }
  size_t size() const { return candidates_.size(); }

  // Previous-snapshot score of candidate v (valid after the first Observe).
  double previous_score(NodeId v) const {
    return prev_scores_[static_cast<size_t>(v)];
  }

  // Feeds the scores of the current snapshot (aligned with candidates())
  // and drops candidates that fail the step predicate. Returns the number
  // of dropped candidates.
  size_t Observe(const std::vector<double>& scores);

 private:
  TemporalQuery query_;
  bool first_ = true;
  std::vector<NodeId> candidates_;
  std::vector<double> prev_scores_;  // indexed by node id
};

}  // namespace crashsim

#endif  // CRASHSIM_CORE_TEMPORAL_QUERY_H_
