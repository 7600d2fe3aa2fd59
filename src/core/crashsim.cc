#include "core/crashsim.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/query_stats.h"
#include "simrank/walk.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace crashsim {

namespace {

// The sink fields both query paths fill after scoring against `tree`: its
// shape (for callers that prebuilt the tree outside a context-aware
// BuildRevReach, so tree_builds stays untouched) and the deadline slack.
void RecordTreeAndSlack(const ReverseReachableTree& tree,
                        const QueryContext& ctx, QueryStats* qs) {
  qs->tree_entries = tree.EntryCount();
  qs->tree_bytes = tree.MemoryBytes();
  qs->tree_levels = tree.num_levels();
  if (ctx.has_deadline()) {
    qs->had_deadline = true;
    qs->deadline_slack_seconds =
        std::chrono::duration<double>(ctx.deadline() -
                                      std::chrono::steady_clock::now())
            .count();
  }
}

}  // namespace

Status CrashSimOptions::Validate() const {
  RETURN_IF_ERROR(mc.Validate());
  if (lmax_override < 0) {
    return InvalidArgumentError(
        StrFormat("lmax_override must be >= 0, got %d", lmax_override));
  }
  if (!(tree_prune_threshold >= 0.0)) {
    return InvalidArgumentError(StrFormat(
        "tree_prune_threshold must be >= 0, got %g", tree_prune_threshold));
  }
  if (diag_samples < 1) {
    return InvalidArgumentError(
        StrFormat("diag_samples must be >= 1, got %d", diag_samples));
  }
  if (num_threads < 1) {
    return InvalidArgumentError(
        StrFormat("num_threads must be >= 1, got %d", num_threads));
  }
  if (batch_size < 1 || batch_size > kMaxWalkBatch) {
    return InvalidArgumentError(StrFormat(
        "batch_size must be in [1, %d], got %d", kMaxWalkBatch, batch_size));
  }
  return OkStatus();
}

CrashSim::CrashSim(const CrashSimOptions& options)
    : options_(options), sqrt_c_(std::sqrt(options.mc.c)) {}

Status CrashSim::Bind(const Graph* g) {
  RETURN_IF_ERROR(options_.Validate());
  return Bind(g, EstimateDiagonal(*g));
}

Status CrashSim::Bind(const Graph* g, SharedDiagonal diag) {
  RETURN_IF_ERROR(options_.Validate());
  if (options_.mode == RevReachMode::kCorrected) {
    CRASHSIM_CHECK(diag != nullptr &&
                   diag->size() == static_cast<size_t>(g->num_nodes()))
        << "corrected mode needs one d(w) per node of the bound graph";
  } else {
    CRASHSIM_CHECK(diag == nullptr) << "paper mode takes no diagonal";
  }
  set_graph(g);
  diag_ = std::move(diag);
  return OkStatus();
}

SharedDiagonal CrashSim::EstimateDiagonal(const Graph& g) const {
  if (options_.mode != RevReachMode::kCorrected) return nullptr;
  return std::make_shared<const std::vector<double>>(
      EstimateDiagonalCorrections(g, options_.mc.c, options_.diag_samples,
                                  LMax() + 1, options_.mc.seed,
                                  options_.num_threads));
}

const std::vector<double>& CrashSim::diagonal() const {
  static const std::vector<double> kNone;
  return diag_ != nullptr ? *diag_ : kNone;
}

int CrashSim::LMax() const {
  return options_.lmax_override > 0 ? options_.lmax_override
                                    : CrashSimLMax(options_.mc.c);
}

int64_t CrashSim::TrialsFor(NodeId n) const {
  if (options_.mc.trials_override > 0) return options_.mc.trials_override;
  int64_t nr = CrashSimTrialCount(options_.mc.c, options_.mc.epsilon,
                                  options_.mc.delta, n);
  if (options_.mc.trials_cap > 0) nr = std::min(nr, options_.mc.trials_cap);
  return nr;
}

ReverseReachableTree CrashSim::BuildTree(NodeId u) const {
  return BuildRevReach(*graph(), u, LMax(), options_.mc.c, options_.mode,
                       options_.tree_prune_threshold);
}

PartialResult CrashSim::SingleSourceImpl(NodeId u, QueryContext* ctx) {
  PartialResult result;
  if (Status s = ValidateNodeId(u, graph()->num_nodes(), "source"); !s.ok()) {
    result.status = s;
    return result;
  }
  StatusOr<ReverseReachableTree> tree =
      BuildRevReach(*graph(), u, LMax(), options_.mc.c, options_.mode,
                    options_.tree_prune_threshold, ctx);
  if (!tree.ok()) {
    result.status = tree.status().WithContext("revReach tree construction");
    return result;
  }
  return SweepWithTree(*tree, ctx);
}

PartialResult CrashSim::SweepWithTree(const ReverseReachableTree& tree,
                                      QueryContext* ctx) const {
  PartialResult result;
  const Graph& g = *graph();
  const NodeId u = tree.source();
  if (Status s = ValidateNodeId(u, g.num_nodes(), "source"); !s.ok()) {
    result.status = s;
    return result;
  }
  TRACE_SPAN("crashsim.sweep");
  const bool corrected = options_.mode == RevReachMode::kCorrected;
  CRASHSIM_CHECK(!corrected || diag_ != nullptr)
      << "corrected mode requires Bind() to estimate d(w)";
  const std::span<const double> diag =
      corrected ? std::span<const double>(*diag_) : std::span<const double>();
  CRASHSIM_CHECK(tree.num_nodes() == g.num_nodes())
      << "the tree belongs to another graph";
  const size_t n = static_cast<size_t>(g.num_nodes());
  const ReverseReachableTree::DenseRows& rows = tree.EnsureDenseRows();
  auto level_empty = [&](int l) {
    return rows.row_off[static_cast<size_t>(l)] < 0 && tree.Level(l).empty();
  };
  int top = tree.max_level();
  while (top >= 1 && level_empty(top)) --top;

  // x holds acc + U(l, .) * d while the next acc is gathered into `next`;
  // the two swap after every level.
  std::vector<double> x(n, 0.0);
  std::vector<double> next(n, 0.0);
  const double sqrt_c = sqrt_c_;
  auto gather = [&](int64_t begin, int64_t end) {
    const double* const in_x = x.data();
    double* const out = next.data();
    for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
      const std::span<const NodeId> in = g.InNeighbors(v);
      double sum = 0.0;
      for (NodeId w : in) sum += in_x[w];
      out[v] = in.empty() ? 0.0
                          : sqrt_c * (sum / static_cast<double>(in.size()));
    }
  };
  for (int l = top; l >= 1; --l) {
    if (ctx != nullptr) {
      if (Status s = ctx->Check(); !s.ok()) {
        result.status = s;
        return result;
      }
    }
    if (Status s = CRASHSIM_FAILPOINT("crashsim.sweep_level"); !s.ok()) {
      result.status = s;
      return result;
    }
    if (const int64_t off = rows.row_off[static_cast<size_t>(l)]; off >= 0) {
      const float* row = rows.prob.data() + off;
      for (size_t w = 0; w < n; ++w) {
        x[w] += static_cast<double>(row[w]) * (diag.empty() ? 1.0 : diag[w]);
      }
    } else {
      for (const auto& [w, prob] : tree.Level(l)) {
        const size_t wi = static_cast<size_t>(w);
        x[wi] += static_cast<double>(prob) * (diag.empty() ? 1.0 : diag[wi]);
      }
    }
    if (options_.num_threads > 1) {
      try {
        ParallelFor(static_cast<int64_t>(n), gather, /*min_chunk=*/1024,
                    options_.num_threads);
      } catch (const StatusException& e) {
        result.status = e.status();
        return result;
      } catch (const std::bad_alloc&) {
        result.status = ResourceExhaustedError("out of memory during sweep");
        return result;
      }
    } else {
      gather(0, static_cast<int64_t>(n));
    }
    x.swap(next);
  }
  x[static_cast<size_t>(u)] = 1.0;
  result.scores = std::move(x);
  result.epsilon_achieved = CrashSimTruncationBound(options_.mc.c, LMax());
  if (QueryStats* qs = ctx != nullptr ? ctx->stats() : nullptr;
      qs != nullptr) {
    qs->epsilon_achieved = result.epsilon_achieved;
    qs->candidates_evaluated += static_cast<int64_t>(n) - 1;
    RecordTreeAndSlack(tree, *ctx, qs);
  }
  return result;
}

PartialResult CrashSim::PartialImpl(NodeId u,
                                    std::span<const NodeId> candidates,
                                    QueryContext* ctx) {
  PartialResult result;
  if (Status s = ValidateNodeId(u, graph()->num_nodes(), "source"); !s.ok()) {
    result.status = s;
    return result;
  }
  StatusOr<ReverseReachableTree> tree =
      BuildRevReach(*graph(), u, LMax(), options_.mc.c, options_.mode,
                    options_.tree_prune_threshold, ctx);
  if (!tree.ok()) {
    // Deadline/cancel during tree construction: no trials ran, the scores
    // are all-zero placeholders and the bound is vacuous (+inf).
    result.status = tree.status().WithContext("revReach tree construction");
    result.trials_target = TrialsFor(graph()->num_nodes());
    result.scores.assign(candidates.size(), 0.0);
    if (QueryStats* qs = ctx != nullptr ? ctx->stats() : nullptr;
        qs != nullptr) {
      qs->trials_target += result.trials_target;
      qs->trials_truncated = true;
    }
    return result;
  }
  return PartialWithTree(*tree, candidates, ctx);
}

PartialResult CrashSim::PartialWithTree(const ReverseReachableTree& tree,
                                        std::span<const NodeId> candidates,
                                        QueryContext* ctx) {
  PartialResult result;
  const Graph& g = *graph();
  const NodeId u = tree.source();
  if (Status s = ValidateNodeId(u, g.num_nodes(), "source"); !s.ok()) {
    result.status = s;
    return result;
  }
  for (NodeId v : candidates) {
    if (Status s = ValidateNodeId(v, g.num_nodes(), "candidate"); !s.ok()) {
      result.status = s;
      return result;
    }
  }
  TRACE_SPAN("crashsim.partial");
  const int l_max = tree.max_level();
  int64_t n_r = TrialsFor(g.num_nodes());
  if (ctx != nullptr) {
    // Executor degradation (docs/ROBUSTNESS.md): under load the trial
    // budget shrinks by the context's fraction; never below one trial so
    // the anytime bound still holds, and epsilon_achieved reports the
    // looser guarantee of the shrunken budget.
    const double fraction = ctx->trial_fraction();
    if (fraction < 1.0) {
      n_r = std::max<int64_t>(
          1, static_cast<int64_t>(static_cast<double>(n_r) *
                                  std::max(0.0, fraction)));
    }
  }
  const bool corrected = options_.mode == RevReachMode::kCorrected;
  CRASHSIM_CHECK(!corrected || diag_ != nullptr)
      << "corrected mode requires Bind() to estimate d(w)";
  result.trials_target = n_r;
  result.scores.assign(candidates.size(), 0.0);

  // The Monte-Carlo inner loop lives in WalkBatchEngine: tiles of walks
  // swept one tree level per step (or its bit-identical scalar twin at
  // batch_size 1 / tiny jobs). Every walk draws from the
  // substream PerWalkSeed(ChainSeed(seed, source), candidate, trial) —
  // util/rng.h documents the derivation — so scores depend only on (seed,
  // trials run), never on thread count, batch size, or where a deadline
  // cut the loop. Walks take l_max + 1 nodes = l_max steps: the tree holds
  // levels 0..l_max and walk position i scores against level i (Algorithm 1
  // lines 8-11 with the depth off-by-one fixed), so the deepest level can
  // contribute; the truncation error (sqrt c)^{l_max+1} <= eps_t stays
  // within Theorem 1's budget.
  const WalkBatchEngine engine(
      g, tree,
      corrected ? std::span<const double>(*diag_) : std::span<const double>(),
      sqrt_c_, l_max + 1, ChainSeed(options_.mc.seed, static_cast<uint64_t>(u)),
      options_.batch_size);

  // Observability: walk-step and crash-hit counts accumulate in per-
  // candidate slots (disjoint under candidate-level parallelism) and fold
  // into the sink in index order at the end, so the recorded counts depend
  // only on (seed, trials run) — never on thread count.
  QueryStats* const qs = ctx != nullptr ? ctx->stats() : nullptr;
  std::vector<WalkBatchStats> stat_slots(qs != nullptr ? candidates.size()
                                                       : 0);

  // Trial blocks grow 1, 2, 4, ..., 64: the first checkpoint lands after a
  // single trial sweep (so even an already-expired deadline yields a
  // non-empty partial answer), later checkpoints amortise the clock read.
  // The context is only consulted *between* blocks, keeping every candidate
  // at the same trial count — the invariant the anytime bound needs.
  //
  // Each block accumulates into its own scratch and folds into the result
  // only after the whole block succeeded, so a shard killed mid-block (an
  // injected fault, an allocation failure) simply discards the scratch:
  // the partial answer is always the exact result of `done` full trials,
  // with no rollback bookkeeping.
  int64_t done = 0;
  int64_t block = 1;
  constexpr int64_t kMaxBlock = 64;
  std::vector<double> block_mass(candidates.size());
  std::vector<WalkBatchStats> block_stats(candidates.size());
  while (done < n_r) {
    if (ctx != nullptr && done > 0) {
      if (Status s = ctx->Check(); !s.ok()) {
        result.status = s;
        break;
      }
    }
    if (Status s = CRASHSIM_FAILPOINT("crashsim.trial_block"); !s.ok()) {
      result.status = s;
      break;
    }
    const int64_t batch = std::min(block, n_r - done);
    TRACE_SPAN("crashsim.trial_block");
    std::fill(block_mass.begin(), block_mass.end(), 0.0);
    std::fill(block_stats.begin(), block_stats.end(), WalkBatchStats{});
    // Trial indices are absolute ([done, done + batch)), so each block's
    // walks are the same whether the query runs to completion, is cut
    // short, or replays with trials_override = trials_done.
    auto run_range = [&](int64_t begin, int64_t end) {
      engine.Run(
          candidates.subspan(static_cast<size_t>(begin),
                             static_cast<size_t>(end - begin)),
          u, done, done + batch,
          std::span<double>(block_mass).subspan(static_cast<size_t>(begin)),
          std::span<WalkBatchStats>(block_stats)
              .subspan(static_cast<size_t>(begin),
                       static_cast<size_t>(end - begin)));
    };
    if (options_.num_threads > 1) {
      try {
        ParallelFor(static_cast<int64_t>(candidates.size()), run_range,
                    /*min_chunk=*/8, options_.num_threads);
      } catch (const StatusException& e) {
        result.status = e.status();
        break;
      } catch (const std::bad_alloc&) {
        result.status =
            ResourceExhaustedError("out of memory during CrashSim trial block");
        break;
      }
    } else {
      run_range(0, static_cast<int64_t>(candidates.size()));
    }
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      result.scores[ci] += block_mass[ci];
    }
    if (qs != nullptr) {
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        stat_slots[ci].walk_steps += block_stats[ci].walk_steps;
        stat_slots[ci].tree_hits += block_stats[ci].tree_hits;
      }
    }
    done += batch;
    block = std::min(block * 2, kMaxBlock);
  }
  result.trials_done = done;
  if (done > 0) {
    const double inv = 1.0 / static_cast<double>(done);
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      result.scores[ci] = (candidates[ci] == u) ? 1.0 : result.scores[ci] * inv;
    }
  }
  result.epsilon_achieved = CrashSimAchievedEpsilon(
      options_.mc.c, options_.mc.delta, g.num_nodes(), LMax(), done);
  if (qs != nullptr) {
    qs->trials_target += n_r;
    qs->trials_run += done;
    if (done < n_r) qs->trials_truncated = true;
    qs->epsilon_achieved = result.epsilon_achieved;
    int64_t evaluated = 0;
    for (NodeId v : candidates) {
      if (v != u) ++evaluated;
    }
    qs->candidates_evaluated += evaluated;
    // The trial-block loop keeps every candidate at the same trial count.
    qs->walks_sampled += done * evaluated;
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      qs->walk_steps += stat_slots[ci].walk_steps;
      qs->tree_hits += stat_slots[ci].tree_hits;
    }
    RecordTreeAndSlack(tree, *ctx, qs);
  }
  return result;
}

}  // namespace crashsim
