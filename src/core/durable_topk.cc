#include "core/durable_topk.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/top_k.h"

namespace crashsim {

Status ValidateDurableTopKQuery(const TemporalGraph& tg,
                                const DurableTopKQuery& query) {
  TemporalQuery interval;
  interval.source = query.source;
  interval.begin_snapshot = query.begin_snapshot;
  interval.end_snapshot = query.end_snapshot;
  RETURN_IF_ERROR(ValidateQueryInterval(tg, interval));
  if (query.k < 1) {
    return InvalidArgumentError(StrFormat("k must be >= 1, got %d", query.k));
  }
  if (!(query.floor >= 0.0)) {
    return InvalidArgumentError(
        StrFormat("floor must be >= 0, got %g", query.floor));
  }
  return OkStatus();
}

CrashSimDurableTopK::CrashSimDurableTopK(const CrashSimOptions& options)
    : crashsim_(options) {}

DurableTopKAnswer CrashSimDurableTopK::Answer(const TemporalGraph& tg,
                                              const DurableTopKQuery& query) {
  const Status valid = ValidateDurableTopKQuery(tg, query);
  CRASHSIM_CHECK(valid.ok()) << valid;

  Stopwatch timer;
  DurableTopKAnswer answer;

  std::vector<NodeId> candidates;
  candidates.reserve(static_cast<size_t>(tg.num_nodes()) - 1);
  for (NodeId v = 0; v < tg.num_nodes(); ++v) {
    if (v != query.source) candidates.push_back(v);
  }
  std::vector<double> running_min(static_cast<size_t>(tg.num_nodes()), 0.0);

  SnapshotCursor cursor(&tg);
  while (cursor.snapshot_index() < query.begin_snapshot) cursor.Advance();

  for (int t = query.begin_snapshot;
       t <= query.end_snapshot && !candidates.empty(); ++t) {
    crashsim_.Bind(&cursor.graph());
    const std::vector<double> scores =
        crashsim_.Partial(query.source, candidates);
    answer.stats.scores_computed += static_cast<int64_t>(candidates.size());

    std::vector<NodeId> kept;
    kept.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const NodeId v = candidates[i];
      const double s = scores[i];
      double& mins = running_min[static_cast<size_t>(v)];
      mins = (t == query.begin_snapshot) ? s : std::min(mins, s);
      // Sound floor pruning: the durable score can only fall further. The
      // default floor of 0 keeps every candidate (scores are non-negative).
      if (mins >= query.floor) kept.push_back(v);
    }
    candidates.swap(kept);
    ++answer.stats.snapshots_processed;
    if (t < query.end_snapshot) cursor.Advance();
  }

  TopK<NodeId> top(static_cast<size_t>(query.k));
  for (NodeId v : candidates) {
    top.Offer(running_min[static_cast<size_t>(v)], v);
  }
  answer.result = top.Sorted();
  answer.stats.total_seconds = timer.ElapsedSeconds();
  return answer;
}

}  // namespace crashsim
