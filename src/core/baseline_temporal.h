#ifndef CRASHSIM_CORE_BASELINE_TEMPORAL_H_
#define CRASHSIM_CORE_BASELINE_TEMPORAL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/query_context.h"
#include "core/temporal_query.h"
#include "graph/temporal_graph.h"
#include "simrank/reads.h"
#include "simrank/simrank.h"
#include "util/status.h"

namespace crashsim {

// Outcome of a temporal SimRank query plus the bookkeeping the benchmark
// harness reports.
struct TemporalAnswerStats {
  int snapshots_processed = 0;
  double total_seconds = 0.0;
  // (snapshot, node) scores actually recomputed; pruning shrinks this.
  int64_t scores_computed = 0;
  int64_t pruned_by_delta = 0;
  int64_t pruned_by_difference = 0;
  // Snapshots where the source tree matched and pruning was attempted.
  int stable_tree_snapshots = 0;
  // Pruning-rule effort behind the hit counts above (CrashSim-T only; the
  // recompute-everything baselines leave them zero). Checks count the
  // candidates each rule examined, so hits/checks is the rule's hit rate —
  // the Properties 1-2 effectiveness evidence docs/OBSERVABILITY.md maps to
  // the paper.
  int64_t delta_prune_checks = 0;
  int64_t difference_prune_checks = 0;
  // Property 2 hits resolved by the reachability prefilter (no rebuild) vs
  // candidate revReach trees rebuilt for the literal comparison.
  int64_t difference_prefilter_skips = 0;
  int64_t difference_tree_rebuilds = 0;
  // Snapshots after the first that rebuilt vs reused the source tree.
  int source_tree_rebuilds = 0;
  int source_tree_reuses = 0;
};

struct TemporalAnswer {
  std::vector<NodeId> nodes;  // the result set Omega, sorted
  TemporalAnswerStats stats;
  // OK when the whole interval was processed. kDeadlineExceeded/kCancelled
  // when a QueryContext stopped the engine early: `nodes` then reflects the
  // filter state after the last *fully processed* snapshot (see
  // stats.snapshots_processed) — a sound answer for the prefix interval.
  Status status;

  bool complete() const { return status.ok(); }
};

// Interface of every temporal SimRank query engine (CrashSim-T and the
// Section II-D baseline adaptations). An engine implements one query body,
// AnswerImpl; the public entry points are defined once, here.
class TemporalEngine {
 public:
  virtual ~TemporalEngine() = default;
  virtual std::string name() const = 0;

  // Answers `query` over its snapshot interval. `ctx` (nullptr = unbounded)
  // is passed on to every stage that takes one; when it stops the engine
  // early the answer is the sound prefix answer described on
  // TemporalAnswer. A bad interval or source id comes back as
  // kInvalidArgument.
  TemporalAnswer Answer(const TemporalGraph& tg, const TemporalQuery& query,
                        QueryContext* ctx) {
    return AnswerImpl(tg, query, ctx);
  }
  // Unbounded form: ctx = nullptr, CHECK-fails on any non-OK status.
  TemporalAnswer Answer(const TemporalGraph& tg, const TemporalQuery& query);

 protected:
  virtual TemporalAnswer AnswerImpl(const TemporalGraph& tg,
                                    const TemporalQuery& query,
                                    QueryContext* ctx) = 0;
};

// The straightforward extension of a static algorithm (ProbeSim, SLING,
// CrashSim-without-pruning, ...) described in Section II-D: rebind and
// recompute the full single-source result at every snapshot, then filter.
// The wrapped algorithm is borrowed and must outlive the engine.
class StaticRecomputeEngine : public TemporalEngine {
 public:
  explicit StaticRecomputeEngine(SimRankAlgorithm* algorithm)
      : algorithm_(algorithm) {}

  std::string name() const override { return algorithm_->name() + "-T"; }

 protected:
  TemporalAnswer AnswerImpl(const TemporalGraph& tg,
                            const TemporalQuery& query,
                            QueryContext* ctx) override;

 private:
  SimRankAlgorithm* algorithm_;
};

// READS adapted to temporal queries: the one-way-graph index is built once
// and repaired per snapshot via Reads::ApplyDelta (its dynamic-update path),
// but the single-source evaluation still runs on every snapshot for the
// whole node set — the paper's point that dynamic-graph indexes miss the
// shrinking-candidate-set opportunity.
class ReadsTemporalEngine : public TemporalEngine {
 public:
  explicit ReadsTemporalEngine(const ReadsOptions& options)
      : reads_(options) {}

  std::string name() const override { return "READS-T"; }

 protected:
  TemporalAnswer AnswerImpl(const TemporalGraph& tg,
                            const TemporalQuery& query,
                            QueryContext* ctx) override;

 private:
  Reads reads_;
};

// Validates the query interval and source against the temporal graph:
// kInvalidArgument describing exactly which bound is out of range. Every
// engine checks its query with it before touching a snapshot.
[[nodiscard]] Status ValidateQueryInterval(const TemporalGraph& tg,
                                           const TemporalQuery& query);

}  // namespace crashsim

#endif  // CRASHSIM_CORE_BASELINE_TEMPORAL_H_
