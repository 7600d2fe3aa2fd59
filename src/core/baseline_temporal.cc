#include "core/baseline_temporal.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace crashsim {

TemporalAnswer TemporalEngine::Answer(const TemporalGraph& tg,
                                      const TemporalQuery& query,
                                      QueryContext* ctx) {
  TemporalAnswer answer = AnswerImpl(tg, query, ctx);
  QueryStats* const sink = ctx != nullptr ? ctx->stats() : nullptr;
  if (sink != nullptr) {
    const QueryStats& s = answer.stats;
    sink->snapshots_processed += s.snapshots_processed;
    sink->stable_tree_snapshots += s.stable_tree_snapshots;
    sink->source_tree_rebuilds += s.source_tree_rebuilds;
    sink->source_tree_reuses += s.source_tree_reuses;
    sink->delta_prune_checks += s.delta_prune_checks;
    sink->delta_prune_hits += s.delta_prune_hits;
    sink->difference_prune_checks += s.difference_prune_checks;
    sink->difference_prune_hits += s.difference_prune_hits;
    sink->difference_prefilter_skips += s.difference_prefilter_skips;
    sink->difference_tree_rebuilds += s.difference_tree_rebuilds;
    sink->scores_computed += s.scores_computed;
    sink->snapshots.insert(sink->snapshots.end(), s.snapshots.begin(),
                           s.snapshots.end());
  }
  return answer;
}

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
  TemporalAnswer answer;
  answer.status = ValidateQueryInterval(tg, query);
  if (!answer.status.ok()) return answer;
  CandidateFilter filter(query, tg.num_nodes());

  SnapshotCursor cursor(&tg, query.begin_snapshot);
  Status bound = algorithm_->Bind(&cursor.graph());

  for (int t = query.begin_snapshot; t <= query.end_snapshot; ++t) {
    if (!bound.ok()) {
      answer.status = bound.WithContext(StrFormat("snapshot %d", t));
      break;
    }
    // Full single-source recomputation every snapshot: the baseline cannot
    // restrict itself to the surviving candidates.
    const PartialResult all = algorithm_->SingleSource(query.source, ctx);
    if (!all.complete()) {
      answer.status = all.status.WithContext(StrFormat("snapshot %d", t));
      break;
    }
    answer.stats.scores_computed += tg.num_nodes() - 1;
    filter.Observe(Gather(all.scores, filter.candidates()));
    ++answer.stats.snapshots_processed;
    if (t < query.end_snapshot) {
      cursor.Advance();
      bound = algorithm_->Update(&cursor.graph(),
                                 tg.Delta(cursor.snapshot_index()));
    }
  }
  answer.nodes = filter.candidates();
  return answer;
}

}  // namespace crashsim
