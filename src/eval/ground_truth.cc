#include "eval/ground_truth.h"

#include "util/timer.h"

namespace crashsim {

TemporalAnswer ExactTemporalEngine::AnswerImpl(const TemporalGraph& tg,
                                               const TemporalQuery& query,
                                               QueryContext* /*ctx*/) {
  Stopwatch timer;
  TemporalAnswer answer;
  answer.status = ValidateQueryInterval(tg, query);
  if (!answer.status.ok()) return answer;
  CandidateFilter filter(query, tg.num_nodes());

  SnapshotCursor cursor(&tg);
  while (cursor.snapshot_index() < query.begin_snapshot) cursor.Advance();

  for (int t = query.begin_snapshot; t <= query.end_snapshot; ++t) {
    const SimRankMatrix exact =
        PowerMethodAllPairs(cursor.graph(), c_, iterations_);
    const std::vector<double> all = exact.Row(query.source);
    std::vector<double> gathered;
    gathered.reserve(filter.candidates().size());
    for (NodeId v : filter.candidates()) {
      gathered.push_back(all[static_cast<size_t>(v)]);
    }
    answer.stats.scores_computed += tg.num_nodes() - 1;
    filter.Observe(gathered);
    ++answer.stats.snapshots_processed;
    if (t < query.end_snapshot) cursor.Advance();
  }
  answer.nodes = filter.candidates();
  answer.stats.total_seconds = timer.ElapsedSeconds();
  return answer;
}

}  // namespace crashsim
