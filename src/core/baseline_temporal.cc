#include "core/baseline_temporal.h"

#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace crashsim {

TemporalAnswer TemporalEngine::Answer(const TemporalGraph& tg,
                                      const TemporalQuery& query) {
  TemporalAnswer answer = AnswerImpl(tg, query, nullptr);
  CRASHSIM_CHECK(answer.status.ok()) << answer.status;
  return answer;
}

Status ValidateQueryInterval(const TemporalGraph& tg,
                             const TemporalQuery& query) {
  if (query.begin_snapshot < 0) {
    return InvalidArgumentError(StrFormat("begin_snapshot must be >= 0, got %d",
                                          query.begin_snapshot));
  }
  if (query.begin_snapshot > query.end_snapshot) {
    return InvalidArgumentError(
        StrFormat("inverted snapshot interval [%d, %d]", query.begin_snapshot,
                  query.end_snapshot));
  }
  if (query.end_snapshot >= tg.num_snapshots()) {
    return InvalidArgumentError(
        StrFormat("end_snapshot %d out of range (graph has %d snapshots)",
                  query.end_snapshot, tg.num_snapshots()));
  }
  return ValidateNodeId(query.source, tg.num_nodes(), "source");
}

namespace {

// Gathers scores for the filter's current candidates from a full
// single-source result.
std::vector<double> Gather(const std::vector<double>& all,
                           const std::vector<NodeId>& candidates) {
  std::vector<double> out;
  out.reserve(candidates.size());
  for (NodeId v : candidates) out.push_back(all[static_cast<size_t>(v)]);
  return out;
}

}  // namespace

TemporalAnswer StaticRecomputeEngine::AnswerImpl(const TemporalGraph& tg,
                                                 const TemporalQuery& query,
                                                 QueryContext* ctx) {
  Stopwatch timer;
  TemporalAnswer answer;
  answer.status = ValidateQueryInterval(tg, query);
  if (!answer.status.ok()) return answer;
  CandidateFilter filter(query, tg.num_nodes());

  SnapshotCursor cursor(&tg);
  while (cursor.snapshot_index() < query.begin_snapshot) cursor.Advance();

  for (int t = query.begin_snapshot; t <= query.end_snapshot; ++t) {
    const Graph& g = cursor.graph();
    algorithm_->Bind(&g);
    // Full single-source recomputation every snapshot: the baseline cannot
    // restrict itself to the surviving candidates.
    const PartialResult all = algorithm_->SingleSource(query.source, ctx);
    if (!all.complete()) {
      answer.status = all.status.WithContext(StrFormat("snapshot %d", t));
      break;
    }
    answer.stats.scores_computed += g.num_nodes() - 1;
    filter.Observe(Gather(all.scores, filter.candidates()));
    ++answer.stats.snapshots_processed;
    if (t < query.end_snapshot) cursor.Advance();
  }
  answer.nodes = filter.candidates();
  answer.stats.total_seconds = timer.ElapsedSeconds();
  return answer;
}

TemporalAnswer ReadsTemporalEngine::AnswerImpl(const TemporalGraph& tg,
                                               const TemporalQuery& query,
                                               QueryContext* ctx) {
  Stopwatch timer;
  TemporalAnswer answer;
  answer.status = ValidateQueryInterval(tg, query);
  if (!answer.status.ok()) return answer;
  CandidateFilter filter(query, tg.num_nodes());

  SnapshotCursor cursor(&tg);
  while (cursor.snapshot_index() < query.begin_snapshot) cursor.Advance();
  reads_.Bind(&cursor.graph());

  for (int t = query.begin_snapshot; t <= query.end_snapshot; ++t) {
    const PartialResult all = reads_.SingleSource(query.source, ctx);
    if (!all.complete()) {
      answer.status = all.status.WithContext(StrFormat("snapshot %d", t));
      break;
    }
    answer.stats.scores_computed += tg.num_nodes() - 1;
    filter.Observe(Gather(all.scores, filter.candidates()));
    ++answer.stats.snapshots_processed;
    if (t < query.end_snapshot) {
      cursor.Advance();
      // Incremental index repair instead of a rebuild.
      reads_.ApplyDelta(tg.Delta(cursor.snapshot_index()), &cursor.graph());
    }
  }
  answer.nodes = filter.candidates();
  answer.stats.total_seconds = timer.ElapsedSeconds();
  return answer;
}

}  // namespace crashsim
