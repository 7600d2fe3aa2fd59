#include "core/crashsim_t.h"

#include <algorithm>
#include <new>
#include <optional>
#include <utility>

#include "core/query_stats.h"
#include "graph/snapshot_diff.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace crashsim {

Status CrashSimTOptions::Validate() const { return crashsim.Validate(); }

CrashSimT::CrashSimT(const CrashSimTOptions& options,
                     SnapshotDiagonals* diagonals)
    : options_(options), crashsim_(options.crashsim), diagonals_(diagonals) {
  CRASHSIM_CHECK(diagonals_ == nullptr || diagonals_->Matches(options.crashsim))
      << "the diagonal table was built with different engine options";
}

Status CrashSimT::BindSnapshot(const TemporalGraph& tg, int t,
                               const Graph& g) {
  if (diagonals_ == nullptr) {
    crashsim_.Bind(&g);
    return OkStatus();
  }
  CRASHSIM_CHECK(diagonals_->graph() == &tg)
      << "the diagonal table belongs to another temporal graph";
  try {
    crashsim_.Bind(&g, diagonals_->Get(t, g));
  } catch (const StatusException& e) {
    return e.status();
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError(
        "out of memory estimating the snapshot diagonal");
  }
  return OkStatus();
}

int64_t CrashSimT::CandidateEdgeCount(const Graph& g,
                                      const std::vector<NodeId>& candidates) {
  std::vector<char> in_set(static_cast<size_t>(g.num_nodes()), 0);
  for (NodeId v : candidates) in_set[static_cast<size_t>(v)] = 1;
  int64_t count = 0;
  for (NodeId v : candidates) {
    for (NodeId w : g.OutNeighbors(v)) {
      if (in_set[static_cast<size_t>(w)]) ++count;
    }
  }
  return count;
}

// Algorithm 3. The context is threaded through every stage (tree builds,
// trial blocks, snapshot advance) for anytime semantics and per-snapshot
// observability; with ctx = nullptr the same body runs unbounded. The
// pruning decisions are deterministic and never consult the context.
TemporalAnswer CrashSimT::AnswerImpl(const TemporalGraph& tg,
                                     const TemporalQuery& query,
                                     QueryContext* ctx) {
  Stopwatch timer;
  TemporalAnswer answer;
  if (Status s = options_.Validate(); !s.ok()) {
    answer.status = s;
    return answer;
  }
  if (Status s = ValidateQueryInterval(tg, query); !s.ok()) {
    answer.status = s;
    return answer;
  }
  CandidateFilter filter(query, tg.num_nodes());

  // Observability: per-rule counters accumulate in answer.stats; the sink
  // additionally receives a per-snapshot breakdown and the aggregate copy
  // at every exit (the nested CrashSim and BuildRevReach calls record
  // trial/tree work into the same sink). Every exit after validation
  // reports the candidate set after the last fully processed snapshot.
  QueryStats* const qs = ctx != nullptr ? ctx->stats() : nullptr;
  auto finish = [&]() {
    answer.nodes = filter.candidates();
    answer.stats.total_seconds = timer.ElapsedSeconds();
    if (qs != nullptr) {
      const TemporalAnswerStats& s = answer.stats;
      qs->snapshots_processed += s.snapshots_processed;
      qs->stable_tree_snapshots += s.stable_tree_snapshots;
      qs->source_tree_rebuilds += s.source_tree_rebuilds;
      qs->source_tree_reuses += s.source_tree_reuses;
      qs->delta_prune_checks += s.delta_prune_checks;
      qs->delta_prune_hits += s.pruned_by_delta;
      qs->difference_prune_checks += s.difference_prune_checks;
      qs->difference_prune_hits += s.pruned_by_difference;
      qs->difference_prefilter_skips += s.difference_prefilter_skips;
      qs->difference_tree_rebuilds += s.difference_tree_rebuilds;
      qs->scores_computed += s.scores_computed;
    }
    return std::move(answer);
  };
  const int l_max = crashsim_.LMax();
  const auto build_tree = [&](const Graph& g, NodeId v) {
    return BuildRevReach(g, v, l_max, options_.crashsim.mc.c,
                         options_.crashsim.mode,
                         options_.crashsim.tree_prune_threshold, ctx);
  };

  SnapshotCursor cursor(&tg);
  while (cursor.snapshot_index() < query.begin_snapshot) cursor.Advance();

  // Snapshot T_1: full partial evaluation over all candidates (line 2).
  const std::string first_snapshot =
      StrFormat("snapshot %d", query.begin_snapshot);
  if (Status s = BindSnapshot(tg, query.begin_snapshot, cursor.graph());
      !s.ok()) {
    answer.status = s.WithContext(first_snapshot);
    return finish();
  }
  ReverseReachableTree prev_tree;
  {
    StatusOr<ReverseReachableTree> tree_or =
        build_tree(cursor.graph(), query.source);
    if (!tree_or.ok()) {
      answer.status = tree_or.status().WithContext(first_snapshot);
      return finish();
    }
    prev_tree = std::move(*tree_or);
    const int64_t first_candidates =
        static_cast<int64_t>(filter.candidates().size());
    PartialResult first =
        crashsim_.PartialWithTree(prev_tree, filter.candidates(), ctx);
    if (!first.complete()) {
      answer.status = first.status.WithContext(first_snapshot);
      return finish();
    }
    answer.stats.scores_computed += first_candidates;
    filter.Observe(first.scores);
    ++answer.stats.snapshots_processed;
    if (qs != nullptr) {
      qs->snapshots.push_back({query.begin_snapshot, first_candidates, 0, 0,
                               first_candidates, false});
    }
  }

  // Previous snapshot graph kept for difference pruning's tree comparison.
  Graph prev_graph = cursor.graph();

  for (int t = query.begin_snapshot + 1;
       t <= query.end_snapshot && !filter.candidates().empty(); ++t) {
    TRACE_SPAN("crashsim_t.snapshot");
    // One checkpoint per snapshot; finer-grained checks happen inside the
    // tree builds and the trial loop below.
    if (ctx != nullptr) {
      if (Status s = ctx->Check(); !s.ok()) {
        answer.status = s.WithContext(StrFormat("snapshot %d", t));
        break;
      }
    }
    if (Status s = CRASHSIM_FAILPOINT("crashsim_t.snapshot"); !s.ok()) {
      answer.status = s.WithContext(StrFormat("snapshot %d", t));
      break;
    }
    // Baselines for this snapshot's per-rule deltas (per-snapshot entry
    // appended once the snapshot completes).
    const int64_t delta_hits_before = answer.stats.pruned_by_delta;
    const int64_t diff_hits_before = answer.stats.pruned_by_difference;
    cursor.Advance();
    const Graph& g = cursor.graph();
    if (Status s = BindSnapshot(tg, t, g); !s.ok()) {
      answer.status = s.WithContext(StrFormat("snapshot %d", t));
      break;
    }

    const EdgeDelta& delta = tg.Delta(t);
    // Heads of all changed edges; the stability test and both pruning rules
    // reason from them.
    std::vector<NodeId> delta_heads;
    delta_heads.reserve(delta.Size());
    for (const Edge& e : delta.added) delta_heads.push_back(e.dst);
    for (const Edge& e : delta.removed) delta_heads.push_back(e.dst);
    std::sort(delta_heads.begin(), delta_heads.end());
    delta_heads.erase(std::unique(delta_heads.begin(), delta_heads.end()),
                      delta_heads.end());

    // Source-tree stability (Algorithm 3 lines 5-7). The literal path
    // rebuilds the tree and compares; the reuse path replaces the rebuild
    // with a reverse-reachability membership test on stable snapshots.
    bool tree_stable = true;
    if (options_.reuse_source_tree) {
      std::vector<char> in_reach(static_cast<size_t>(g.num_nodes()), 0);
      for (NodeId w : ReverseReachableWithin(g, query.source, l_max)) {
        in_reach[static_cast<size_t>(w)] = 1;
      }
      for (NodeId w :
           ReverseReachableWithin(prev_graph, query.source, l_max)) {
        in_reach[static_cast<size_t>(w)] = 1;
      }
      for (NodeId y : delta_heads) {
        if (in_reach[static_cast<size_t>(y)]) {
          tree_stable = false;
          break;
        }
      }
    }
    std::optional<ReverseReachableTree> fresh_tree;
    if (!options_.reuse_source_tree || !tree_stable) {
      StatusOr<ReverseReachableTree> tree_or = build_tree(g, query.source);
      if (!tree_or.ok()) {
        answer.status =
            tree_or.status().WithContext(StrFormat("snapshot %d", t));
        break;
      }
      fresh_tree = std::move(*tree_or);
      if (!options_.reuse_source_tree) tree_stable = (*fresh_tree == prev_tree);
      ++answer.stats.source_tree_rebuilds;
    } else {
      ++answer.stats.source_tree_reuses;
    }
    const ReverseReachableTree& tree =
        fresh_tree.has_value() ? *fresh_tree : prev_tree;

    const std::vector<NodeId>& omega = filter.candidates();
    // omega aliases the filter's live candidate set, which Observe() below
    // shrinks — capture the examined count before that happens.
    const int64_t omega_size_before = static_cast<int64_t>(omega.size());
    const int64_t n_r = crashsim_.TrialsFor(g.num_nodes());

    // recompute[i] — whether omega[i] needs a fresh score this snapshot.
    std::vector<char> recompute(omega.size(), 1);

    // Lines 7-19: pruning applies only when the source tree is stable
    // across the adjacent snapshots.
    Status snapshot_status;
    if (tree_stable &&
        (options_.enable_delta_pruning || options_.enable_difference_pruning)) {
      ++answer.stats.stable_tree_snapshots;
      const int64_t e_omega = CandidateEdgeCount(g, omega);
      const int64_t e_delta = static_cast<int64_t>(delta.Size());

      // Delta pruning (Property 1): affected area = nodes the changed edges'
      // heads out-reach within l_max - 1 (Theorem 2); everything else keeps
      // its score.
      // |E(Delta)| < |Omega| * n_r / |E(Omega)|; an edgeless candidate set
      // makes the bound vacuous (always cheaper to prune).
      if (options_.enable_delta_pruning &&
          (e_omega == 0 ||
           e_delta < static_cast<int64_t>(omega.size()) * n_r / e_omega)) {
        TRACE_SPAN("crashsim_t.delta_prune");
        answer.stats.delta_prune_checks += static_cast<int64_t>(omega.size());
        std::vector<char> affected(static_cast<size_t>(g.num_nodes()), 0);
        for (NodeId y : delta_heads) {
          for (NodeId v : ForwardReachableWithin(g, y, l_max - 1)) {
            affected[static_cast<size_t>(v)] = 1;
          }
          // Removed edges no longer appear in g; cover the pre-delta
          // reachability too so removals prune soundly.
          for (NodeId v : ForwardReachableWithin(prev_graph, y, l_max - 1)) {
            affected[static_cast<size_t>(v)] = 1;
          }
        }
        for (size_t i = 0; i < omega.size(); ++i) {
          if (!affected[static_cast<size_t>(omega[i])]) {
            recompute[i] = 0;
            ++answer.stats.pruned_by_delta;
          }
        }
      }

      // Difference pruning (Property 2): compare each remaining candidate's
      // reverse-reachable tree across the two snapshots.
      if (options_.enable_difference_pruning && e_omega < n_r) {
        TRACE_SPAN("crashsim_t.difference_prune");
        std::vector<char> maybe_changed;
        if (options_.difference_reachability_prefilter) {
          maybe_changed.assign(static_cast<size_t>(g.num_nodes()), 0);
          for (NodeId y : delta_heads) {
            for (NodeId v : ForwardReachableWithin(g, y, l_max)) {
              maybe_changed[static_cast<size_t>(v)] = 1;
            }
            for (NodeId v : ForwardReachableWithin(prev_graph, y, l_max)) {
              maybe_changed[static_cast<size_t>(v)] = 1;
            }
          }
        }
        for (size_t i = 0; i < omega.size(); ++i) {
          if (!recompute[i]) continue;
          const NodeId v = omega[i];
          ++answer.stats.difference_prune_checks;
          bool unchanged;
          bool via_prefilter = false;
          if (options_.difference_reachability_prefilter &&
              !maybe_changed[static_cast<size_t>(v)]) {
            unchanged = true;
            via_prefilter = true;
          } else {
            ++answer.stats.difference_tree_rebuilds;
            StatusOr<ReverseReachableTree> cur_or = build_tree(g, v);
            if (!cur_or.ok()) {
              snapshot_status = cur_or.status();
              break;
            }
            StatusOr<ReverseReachableTree> prev_or = build_tree(prev_graph, v);
            if (!prev_or.ok()) {
              snapshot_status = prev_or.status();
              break;
            }
            unchanged = (*cur_or == *prev_or);
          }
          if (unchanged) {
            recompute[i] = 0;
            ++answer.stats.pruned_by_difference;
            if (via_prefilter) ++answer.stats.difference_prefilter_skips;
          }
        }
      }
    }
    if (!snapshot_status.ok()) {
      answer.status = snapshot_status.WithContext(StrFormat("snapshot %d", t));
      break;
    }

    // Line 20: CrashSim over the residual set Omega'.
    std::vector<NodeId> residual;
    residual.reserve(omega.size());
    for (size_t i = 0; i < omega.size(); ++i) {
      if (recompute[i]) residual.push_back(omega[i]);
    }
    PartialResult fresh = crashsim_.PartialWithTree(tree, residual, ctx);
    if (!fresh.complete()) {
      answer.status = fresh.status.WithContext(StrFormat("snapshot %d", t));
      break;
    }
    answer.stats.scores_computed += static_cast<int64_t>(residual.size());

    // Merge fresh scores with carried-over scores, aligned with omega.
    std::vector<double> merged(omega.size());
    size_t fi = 0;
    for (size_t i = 0; i < omega.size(); ++i) {
      merged[i] = recompute[i] ? fresh.scores[fi++]
                               : filter.previous_score(omega[i]);
    }
    filter.Observe(merged);
    ++answer.stats.snapshots_processed;
    if (qs != nullptr) {
      qs->snapshots.push_back(
          {t, omega_size_before,
           answer.stats.pruned_by_delta - delta_hits_before,
           answer.stats.pruned_by_difference - diff_hits_before,
           static_cast<int64_t>(residual.size()), tree_stable});
    }

    if (fresh_tree.has_value()) prev_tree = std::move(*fresh_tree);
    prev_graph = g;
  }

  return finish();
}

}  // namespace crashsim
