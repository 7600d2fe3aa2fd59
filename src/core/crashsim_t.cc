#include "core/crashsim_t.h"

#include <algorithm>
#include <utility>

#include "core/query_stats.h"
#include "graph/snapshot_diff.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace crashsim {

CrashSimT::CrashSimT(const CrashSimTOptions& options,
                     SnapshotDiagonals* diagonals)
    : options_(options), crashsim_(options.crashsim), diagonals_(diagonals) {
  CRASHSIM_CHECK(diagonals_ == nullptr || diagonals_->Matches(options.crashsim))
      << "the diagonal table was built with different engine options";
}

Status CrashSimT::BindSnapshot(const TemporalGraph& tg, int t,
                               const Graph& g) {
  if (diagonals_ == nullptr) return crashsim_.Bind(&g);
  CRASHSIM_CHECK(diagonals_->graph() == &tg)
      << "the diagonal table belongs to another temporal graph";
  StatusOr<SharedDiagonal> diag = diagonals_->Get(t, g);
  if (!diag.ok()) return diag.status();
  return crashsim_.Bind(&g, *std::move(diag));
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

namespace {

// Heads of all edges the snapshot's delta adds or removes; the stability
// test and both pruning rules reason from them. Repeats are harmless.
std::vector<NodeId> DeltaHeads(const EdgeDelta& delta) {
  std::vector<NodeId> heads;
  heads.reserve(delta.Size());
  for (const Edge& e : delta.added) heads.push_back(e.dst);
  for (const Edge& e : delta.removed) heads.push_back(e.dst);
  return heads;
}

// Hop distance from `seeds` in either of two adjacent snapshots, the
// elementwise minimum of one bounded BFS per graph: removed edges no longer
// appear in the current graph, so the previous one covers them.
std::vector<int> HopsInEither(const Graph& g, const Graph& prev,
                              const std::vector<NodeId>& seeds, int max_depth,
                              EdgeDirection direction) {
  std::vector<int> hops = BoundedHops(g, seeds, max_depth, direction);
  const std::vector<int> prev_hops =
      BoundedHops(prev, seeds, max_depth, direction);
  for (size_t v = 0; v < hops.size(); ++v) {
    hops[v] = std::min(hops[v], prev_hops[v]);
  }
  return hops;
}

}  // namespace

// Algorithm 3. The context is threaded through every stage (tree builds,
// trial blocks, snapshot advance) for anytime semantics; with ctx = nullptr
// the same body runs unbounded. The pruning decisions are deterministic and
// never consult the context. Every exit after validation reports the
// candidate set after the last fully processed snapshot.
TemporalAnswer CrashSimT::AnswerImpl(const TemporalGraph& tg,
                                     const TemporalQuery& query,
                                     QueryContext* ctx) {
  TemporalAnswer answer;
  if (Status s = ValidateQueryInterval(tg, query); !s.ok()) {
    answer.status = s;
    return answer;
  }
  CandidateFilter filter(query, tg.num_nodes());
  QueryStats& stats = answer.stats;
  SnapshotCursor cursor(&tg, query.begin_snapshot);
  // The source tree as the last snapshot that built it left it; a stable
  // snapshot reuses it.
  ReverseReachableTree source_tree;

  for (int t = query.begin_snapshot; t <= query.end_snapshot; ++t) {
    if (t > query.begin_snapshot && filter.candidates().empty()) break;
    TRACE_SPAN("crashsim_t.snapshot");
    const auto fail = [&](const Status& s) {
      answer.status = s.WithContext(StrFormat("snapshot %d", t));
    };
    if (t > query.begin_snapshot) {
      // One checkpoint per advance; finer-grained checks happen inside the
      // tree builds and the trial loop below.
      if (ctx != nullptr) {
        if (Status s = ctx->Check(); !s.ok()) {
          fail(s);
          break;
        }
      }
      if (Status s = CRASHSIM_FAILPOINT("crashsim_t.snapshot"); !s.ok()) {
        fail(s);
        break;
      }
      cursor.Advance();
    }
    const Graph& g = cursor.graph();
    // nullptr at the begin snapshot, which has nothing to compare with: it
    // builds the source tree and scores every candidate (line 2).
    const Graph* const prev = cursor.previous();
    // The first Bind checks the options, so it precedes everything that
    // assumes them valid (LMax, TrialsFor).
    if (Status s = BindSnapshot(tg, t, g); !s.ok()) {
      fail(s);
      break;
    }
    const int l_max = crashsim_.LMax();
    const auto build_tree = [&](const Graph& graph, NodeId v) {
      return BuildRevReach(graph, v, l_max, options_.crashsim.mc.c,
                           options_.crashsim.mode,
                           options_.crashsim.tree_prune_threshold, ctx);
    };
    const EdgeDelta& delta = tg.Delta(t);
    const std::vector<NodeId> delta_heads =
        prev != nullptr ? DeltaHeads(delta) : std::vector<NodeId>{};

    // Source-tree stability (Algorithm 3 lines 5-7). The literal path
    // rebuilds the tree and compares; the reuse path replaces the rebuild
    // with a reverse-reachability membership test on stable snapshots.
    bool tree_stable = false;
    bool rebuild_tree = true;
    if (prev != nullptr && options_.reuse_source_tree) {
      const std::vector<int> hops = HopsInEither(
          g, *prev, {query.source}, l_max, EdgeDirection::kIn);
      tree_stable = std::none_of(
          delta_heads.begin(), delta_heads.end(),
          [&](NodeId y) { return hops[static_cast<size_t>(y)] <= l_max; });
      rebuild_tree = !tree_stable;
    }
    if (rebuild_tree) {
      StatusOr<ReverseReachableTree> tree_or = build_tree(g, query.source);
      if (!tree_or.ok()) {
        fail(tree_or.status());
        break;
      }
      if (prev != nullptr && !options_.reuse_source_tree) {
        tree_stable = (*tree_or == source_tree);
      }
      source_tree = std::move(*tree_or);
    }
    if (prev != nullptr) {
      ++(rebuild_tree ? stats.source_tree_rebuilds : stats.source_tree_reuses);
    }

    const std::vector<NodeId>& omega = filter.candidates();
    // omega aliases the filter's live candidate set, which Observe() below
    // shrinks — capture the examined count before that happens.
    const int64_t omega_size_before = static_cast<int64_t>(omega.size());
    const int64_t delta_hits_before = stats.delta_prune_hits;
    const int64_t diff_hits_before = stats.difference_prune_hits;

    // recompute[i] — whether omega[i] needs a fresh score this snapshot.
    std::vector<char> recompute(omega.size(), 1);

    // Lines 7-19: pruning applies only when the source tree is stable
    // across the adjacent snapshots.
    Status snapshot_status;
    if (tree_stable &&
        (options_.enable_delta_pruning || options_.enable_difference_pruning)) {
      ++stats.stable_tree_snapshots;
      const int64_t n_r = crashsim_.TrialsFor(g.num_nodes());
      const int64_t e_omega = CandidateEdgeCount(g, omega);
      const int64_t e_delta = static_cast<int64_t>(delta.Size());
      // |E(Delta)| < |Omega| * n_r / |E(Omega)|; an edgeless candidate set
      // makes the bound vacuous (always cheaper to prune).
      const bool delta_applies =
          options_.enable_delta_pruning &&
          (e_omega == 0 ||
           e_delta < static_cast<int64_t>(omega.size()) * n_r / e_omega);
      const bool difference_applies =
          options_.enable_difference_pruning && e_omega < n_r;
      // Out-reach of the changed edges' heads, one BFS per graph for both
      // rules: the affected area is hops <= l_max - 1 (Theorem 2), and a
      // candidate's tree can only change if hops <= l_max.
      std::vector<int> head_hops;
      if (delta_applies ||
          (difference_applies && options_.difference_reachability_prefilter)) {
        head_hops =
            HopsInEither(g, *prev, delta_heads, l_max, EdgeDirection::kOut);
      }

      // Delta pruning (Property 1): everything outside the affected area
      // keeps its score.
      if (delta_applies) {
        TRACE_SPAN("crashsim_t.delta_prune");
        stats.delta_prune_checks += static_cast<int64_t>(omega.size());
        for (size_t i = 0; i < omega.size(); ++i) {
          if (head_hops[static_cast<size_t>(omega[i])] > l_max - 1) {
            recompute[i] = 0;
            ++stats.delta_prune_hits;
          }
        }
      }

      // Difference pruning (Property 2): compare each remaining candidate's
      // reverse-reachable tree across the two snapshots.
      if (difference_applies) {
        TRACE_SPAN("crashsim_t.difference_prune");
        for (size_t i = 0; i < omega.size(); ++i) {
          if (!recompute[i]) continue;
          const NodeId v = omega[i];
          ++stats.difference_prune_checks;
          bool unchanged;
          bool via_prefilter = false;
          if (options_.difference_reachability_prefilter &&
              head_hops[static_cast<size_t>(v)] > l_max) {
            unchanged = true;
            via_prefilter = true;
          } else {
            ++stats.difference_tree_rebuilds;
            StatusOr<ReverseReachableTree> cur_or = build_tree(g, v);
            if (!cur_or.ok()) {
              snapshot_status = cur_or.status();
              break;
            }
            StatusOr<ReverseReachableTree> prev_or = build_tree(*prev, v);
            if (!prev_or.ok()) {
              snapshot_status = prev_or.status();
              break;
            }
            unchanged = (*cur_or == *prev_or);
          }
          if (unchanged) {
            recompute[i] = 0;
            ++stats.difference_prune_hits;
            if (via_prefilter) ++stats.difference_prefilter_skips;
          }
        }
      }
    }
    if (!snapshot_status.ok()) {
      fail(snapshot_status);
      break;
    }

    // Line 20: CrashSim over the residual set Omega'.
    std::vector<NodeId> residual;
    residual.reserve(omega.size());
    for (size_t i = 0; i < omega.size(); ++i) {
      if (recompute[i]) residual.push_back(omega[i]);
    }
    PartialResult fresh =
        crashsim_.PartialWithTree(source_tree, residual, ctx);
    if (!fresh.complete()) {
      fail(fresh.status);
      break;
    }
    stats.scores_computed += static_cast<int64_t>(residual.size());

    // Merge fresh scores with carried-over scores, aligned with omega.
    std::vector<double> merged(omega.size());
    size_t fi = 0;
    for (size_t i = 0; i < omega.size(); ++i) {
      merged[i] = recompute[i] ? fresh.scores[fi++]
                               : filter.previous_score(omega[i]);
    }
    filter.Observe(merged);
    ++stats.snapshots_processed;
    stats.snapshots.push_back({t, omega_size_before,
                               stats.delta_prune_hits - delta_hits_before,
                               stats.difference_prune_hits - diff_hits_before,
                               static_cast<int64_t>(residual.size()),
                               tree_stable});
  }

  answer.nodes = filter.candidates();
  return answer;
}

}  // namespace crashsim
