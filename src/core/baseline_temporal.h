#ifndef CRASHSIM_CORE_BASELINE_TEMPORAL_H_
#define CRASHSIM_CORE_BASELINE_TEMPORAL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/query_context.h"
#include "core/query_stats.h"
#include "core/temporal_query.h"
#include "graph/temporal_graph.h"
#include "simrank/simrank.h"
#include "util/status.h"

namespace crashsim {

// Outcome of a temporal SimRank query. `stats` holds the query's temporal
// counters under QueryStats' names (snapshots_processed, scores_computed,
// the pruning counters and, for CrashSim-T, one `snapshots` entry per
// processed snapshot); its trial and tree fields stay zero, because the
// engine's nested calls record that work straight into the ctx sink.
struct TemporalAnswer {
  std::vector<NodeId> nodes;  // the result set Omega, sorted
  QueryStats stats;
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
  // kInvalidArgument. When ctx carries a stats sink, the answer's temporal
  // counters and `snapshots` entries are added to it on return.
  TemporalAnswer Answer(const TemporalGraph& tg, const TemporalQuery& query,
                        QueryContext* ctx);
  // Unbounded form: ctx = nullptr, CHECK-fails on any non-OK status.
  TemporalAnswer Answer(const TemporalGraph& tg, const TemporalQuery& query);

 protected:
  virtual TemporalAnswer AnswerImpl(const TemporalGraph& tg,
                                    const TemporalQuery& query,
                                    QueryContext* ctx) = 0;
};

// The straightforward extension of a static algorithm (ProbeSim, SLING,
// READS, the power method, ...) described in Section II-D: recompute the
// full single-source result at every snapshot, then filter. The algorithm is
// bound at the first snapshot and moved along by SimRankAlgorithm::Update
// after each advance: a rebuild for most, READS's incremental index repair,
// whose single-source evaluation still covers the whole node set (the
// paper's point that dynamic-graph indexes miss the shrinking candidate set).
// A failed Bind or Update ends the answer with its status, naming the
// snapshot. The wrapped algorithm is borrowed and must outlive the engine.
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

// Validates the query interval and source against the temporal graph:
// kInvalidArgument describing exactly which bound is out of range. Every
// engine checks its query with it before touching a snapshot.
[[nodiscard]] Status ValidateQueryInterval(const TemporalGraph& tg,
                                           const TemporalQuery& query);

}  // namespace crashsim

#endif  // CRASHSIM_CORE_BASELINE_TEMPORAL_H_
