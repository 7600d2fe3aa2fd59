#ifndef CRASHSIM_CORE_CRASHSIM_H_
#define CRASHSIM_CORE_CRASHSIM_H_

#include <memory>
#include <string>
#include <vector>

#include "core/query_context.h"
#include "core/rev_reach.h"
#include "core/walk_batch.h"
#include "simrank/simrank.h"
#include "util/status.h"

namespace crashsim {

// Options of the CrashSim estimator (Algorithm 1).
struct CrashSimOptions {
  // Monte-Carlo parameters shared with the baselines (c, epsilon, delta,
  // trial budget, seed).
  SimRankOptions mc;
  // Paper-verbatim or corrected revReach recurrence (see rev_reach.h).
  RevReachMode mode = RevReachMode::kPaper;
  // Overrides l_max = ceil((1+sqrt c)/(1-sqrt c)^2) when > 0.
  int lmax_override = 0;
  // revReach entries below this are dropped; bounds tree size without
  // visible effect at the paper's epsilon range.
  double tree_prune_threshold = 1e-9;
  // Corrected mode only: paired-walk samples per node for the diagonal
  // corrections d(w).
  int diag_samples = 100;
  // > 1 evaluates candidates in parallel on the shared thread pool, using at
  // most this many threads (the pool never spawns per query). Results are
  // deterministic in (seed, source, candidate, trial) and independent of the
  // actual thread count.
  int num_threads = 1;
  // Lanes of the SoA batch walk engine (core/walk_batch.h): how many
  // candidate walks each thread advances in lockstep. 1 runs the scalar
  // reference loop. Any value in [1, kMaxWalkBatch] produces bit-identical
  // scores — the per-walk RNG streams depend only on (seed, source,
  // candidate, trial) — so this knob trades nothing but speed; the
  // differential suite tests/core/walk_batch_test.cc enforces the identity.
  int batch_size = 64;

  // Domain check (delegates to mc.Validate() and covers the CrashSim-only
  // knobs). Invoked at Bind and at every context-aware query entry.
  [[nodiscard]] Status Validate() const;
};

// Corrected mode's diagonal corrections d(w), one per node. Immutable once
// estimated, so engines bound to the same snapshot share one copy.
using SharedDiagonal = std::shared_ptr<const std::vector<double>>;

// CrashSim (Section III, Algorithm 1): index-free single-source and
// *partial* SimRank with the (epsilon, delta) guarantee of Theorem 1.
//
// Per query it builds one truncated reverse-reachable tree U for the source
// (Algorithm 2), then runs n_r trials; each trial samples one truncated
// sqrt(c)-walk W(v) per candidate v and accumulates
//   s_k(u, v) += U(i - 1, W_i(v))   for i in [2, |W(v)|]
// — the probability mass of W(u) "crashing" into the sampled walk. Unlike
// ProbeSim, nothing is recomputed per candidate beyond its own walk, which
// is what makes partial evaluation (candidate sets that shrink over time)
// natural.
class CrashSim : public SimRankAlgorithm {
 public:
  explicit CrashSim(const CrashSimOptions& options);

  std::string name() const override { return "CrashSim"; }
  // Binds g and, in corrected mode, estimates d(w) with EstimateDiagonal.
  void Bind(const Graph* g) override;
  // Binds g with a diagonal estimated earlier: EstimateDiagonal(*g) of an
  // engine with the same (c, diag_samples, l_max, seed), or nullptr in paper
  // mode. Scores equal those after Bind(g) bit for bit.
  void Bind(const Graph* g, SharedDiagonal diag);

  // Corrected mode's d(w) for g, drawn from a fresh Rng(mc.seed) on every
  // call, so it is a pure function of (g, c, diag_samples, l_max, seed) and
  // Bind never depends on what was bound before. nullptr in paper mode.
  SharedDiagonal EstimateDiagonal(const Graph& g) const;

  // Scores candidates against a pre-built source tree (CrashSim-T builds the
  // tree once per snapshot for its pruning checks and reuses it here).
  //
  // Deadline/cancellation-aware (anytime): the context (nullptr = unbounded)
  // is checked between trial blocks; on deadline or cancellation the
  // returned PartialResult carries the exact scores of the trials_done
  // trials that completed plus the achieved error bound — never a throw,
  // never a block. Scores are deterministic given (seed, trials_done): every
  // walk draws from its own RNG stream derived from (seed, source,
  // candidate, trial) — see util/rng.h — so a run cut short at k trials
  // equals a fresh run with trials_override = k bit for bit, independent of
  // num_threads and batch_size. SingleSource and Partial build the tree and
  // run this same body.
  PartialResult PartialWithTree(const ReverseReachableTree& tree,
                                std::span<const NodeId> candidates,
                                QueryContext* ctx);

  // Builds the source tree with this instance's parameters.
  ReverseReachableTree BuildTree(NodeId u) const;

  // Derived parameters (exposed for tests and the pruning conditions).
  int LMax() const;
  int64_t TrialsFor(NodeId n) const;
  const CrashSimOptions& options() const { return options_; }

  // Corrected mode's diagonal corrections d(w) of the bound graph; empty in
  // paper mode.
  const std::vector<double>& diagonal() const;

 protected:
  PartialResult SingleSourceImpl(NodeId u, QueryContext* ctx) override;
  // True partial evaluation: cost O(tree + n_r * |candidates| * E[len]).
  PartialResult PartialImpl(NodeId u, std::span<const NodeId> candidates,
                            QueryContext* ctx) override;

 private:
  CrashSimOptions options_;
  double sqrt_c_ = 0.0;
  SharedDiagonal diag_;  // corrected mode; nullptr in paper mode
};

}  // namespace crashsim

#endif  // CRASHSIM_CORE_CRASHSIM_H_
