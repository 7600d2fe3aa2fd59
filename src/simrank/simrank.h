#ifndef CRASHSIM_SIMRANK_SIMRANK_H_
#define CRASHSIM_SIMRANK_SIMRANK_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/query_context.h"
#include "graph/graph.h"
#include "util/status.h"

namespace crashsim {

struct EdgeDelta;  // graph/temporal_graph.h

// Shared knobs for the Monte-Carlo SimRank estimators (CrashSim, ProbeSim,
// SLING, READS). Each algorithm interprets the subset it needs.
struct SimRankOptions {
  // Decay factor c of the SimRank definition (paper experiments: 0.6).
  double c = 0.6;
  // Maximum tolerable absolute error epsilon.
  double epsilon = 0.025;
  // Failure probability delta of the (epsilon, delta) guarantee.
  double delta = 0.01;
  // If > 0, run exactly this many Monte-Carlo trials instead of the
  // closed-form count. The paper's formulas give ~10^4-10^5 trials at the
  // published parameters, far beyond what its reported sub-second response
  // times can have executed, so the harness sets explicit budgets and
  // records them (see DESIGN.md §2).
  int64_t trials_override = 0;
  // Upper bound applied to the closed-form trial count (0 = no cap,
  // i.e. paper-exact).
  int64_t trials_cap = 20000;
  // Hard cap on sampled walk lengths where the algorithm itself does not
  // truncate (ProbeSim/SLING/READS). 0 = algorithm default. The residual
  // tail mass beyond 64 steps at c=0.6 is (sqrt(c))^64 < 1e-7.
  int max_walk_length = 0;
  // RNG seed; every algorithm is fully deterministic given the seed.
  uint64_t seed = 42;

  // Domain check: c in (0, 1), epsilon > 0, delta in (0, 1), non-negative
  // trial knobs. Bind runs it once, so a typo'd sweep config (c = 1.2,
  // epsilon = -0.1) comes back as kInvalidArgument instead of silently
  // producing garbage scores; the options are immutable after that.
  [[nodiscard]] Status Validate() const;
};

// Shared by the algorithm entry points: source/candidate ids must lie in
// [0, n). Returns kInvalidArgument naming the offending id otherwise.
[[nodiscard]] Status ValidateNodeId(NodeId v, NodeId n, const char* what);

// Common interface of every single-source SimRank implementation in this
// library. An instance is bound to one graph at a time; Bind() rebuilds any
// internal index, so index construction cost is attributable per snapshot
// (the paper's Fig. 5 response times for SLING/READS include indexing time).
//
// An estimator implements one query body, the context-aware
// SingleSourceImpl (plus PartialImpl where it can score a candidate subset
// cheaper than the whole node set). The public entry points are defined
// once, here, and never redeclared by a derived class.
class SimRankAlgorithm {
 public:
  virtual ~SimRankAlgorithm() = default;

  // Short identifier used in benchmark output ("CrashSim", "ProbeSim", ...).
  virtual std::string name() const = 0;

  // (Re)binds the algorithm to `g` and rebuilds internal state. The graph
  // must outlive the binding. The one place an algorithm checks its
  // options, and the one place an input-dependent failure of the index
  // build surfaces (the power method's node cap): either comes back as a
  // non-OK Status, and the algorithm must not be queried until a Bind has
  // succeeded. Queries never re-check the options.
  [[nodiscard]] virtual Status Bind(const Graph* g) = 0;

  // Moves the binding to `next`, the graph after `delta` was applied to the
  // bound one. The default rebinds from scratch; an index with a dynamic
  // update path (READS) repairs itself instead. Fails the way Bind does.
  [[nodiscard]] virtual Status Update(const Graph* next,
                                      const EdgeDelta& /*delta*/) {
    return Bind(next);
  }

  // Estimated SimRank scores s(u, v) for every node v; the scores have size
  // num_nodes with scores[u] == 1. `ctx` (nullptr = unbounded) carries the
  // deadline, cancellation, trial fraction and stats sink; Monte-Carlo
  // estimators with checkpoints return an anytime partial answer when it
  // expires (CrashSim's sweep returns the status with no scores), the others
  // run to completion. Bad ids come back as kInvalidArgument.
  PartialResult SingleSource(NodeId u, QueryContext* ctx) {
    return SingleSourceImpl(u, ctx);
  }

  // Scores only for `candidates` (aligned with it). CrashSim evaluates them
  // truly partially — its key structural advantage for temporal queries
  // (Section IV-A); the default runs SingleSource and gathers.
  PartialResult Partial(NodeId u, std::span<const NodeId> candidates,
                        QueryContext* ctx) {
    return PartialImpl(u, candidates, ctx);
  }

  // Unbounded forms: run with ctx = nullptr and CHECK-fail on any non-OK
  // status (a bad id, an armed failpoint).
  std::vector<double> SingleSource(NodeId u);
  std::vector<double> Partial(NodeId u, std::span<const NodeId> candidates);

 protected:
  // The estimator's query body.
  virtual PartialResult SingleSourceImpl(NodeId u, QueryContext* ctx) = 0;
  // Defaults to SingleSourceImpl plus a gather, after checking every
  // candidate id.
  virtual PartialResult PartialImpl(NodeId u,
                                    std::span<const NodeId> candidates,
                                    QueryContext* ctx);

  const Graph* graph() const { return graph_; }
  void set_graph(const Graph* g) { graph_ = g; }

 private:
  const Graph* graph_ = nullptr;
};

}  // namespace crashsim

#endif  // CRASHSIM_SIMRANK_SIMRANK_H_
