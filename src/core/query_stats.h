#ifndef CRASHSIM_CORE_QUERY_STATS_H_
#define CRASHSIM_CORE_QUERY_STATS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace crashsim {

// Per-query observability record, threaded through the engine via
// QueryContext::set_stats (nullptr sink = zero cost). Every field is the
// evidence side of a paper claim:
//
//   trials_target / trials_run   <-> n_r of Lemma 3 / Theorem 1 — how many
//                                    trials the (epsilon, delta) guarantee
//                                    planned vs. actually executed;
//   tree_*                       <-> Algorithm 2's revReach tree: build
//                                    count, wall time, entry count, bytes;
//   walks_sampled / walk_steps   <-> Algorithm 1 lines 8-11 trial work;
//   tree_hits                    <-> non-zero U(i-1, W_i(v)) crash events;
//   delta_prune_*                <-> Property 1 (Theorem 2 affected area);
//   difference_prune_*           <-> Property 2 (revReach tree comparison);
//   deadline_slack_seconds       <-> the anytime reading of Theorem 1.
//
// Counter-valued fields (trials, walks, steps, hits, pruning counts) are
// deterministic given (seed, options, query): the engine derives every
// candidate's RNG stream from (seed, source, candidate) and records counts
// after parallel regions join, so num_threads never changes them — the
// property tests/core/query_stats_determinism_test.cc pins. Timing fields
// (tree_build_seconds, deadline slack) naturally vary run to run.
//
// Scalar counters accumulate across engine calls sharing one sink (a
// temporal query sums its per-snapshot work); "last build" fields
// (tree_entries, tree_bytes, tree_levels, epsilon_achieved) reflect the
// most recent engine write.
struct QueryStats {
  // --- Monte-Carlo trials (Theorem 1) ---
  int64_t trials_target = 0;  // sum of planned n_r across engine calls
  int64_t trials_run = 0;     // trials actually completed
  bool trials_truncated = false;  // deadline/cancel cut a trial loop short
  // Achieved bound of the most recent trial loop (inverting Lemma 3);
  // +infinity until a trial loop completes at least one trial.
  double epsilon_achieved = std::numeric_limits<double>::infinity();

  // --- revReach trees (Algorithm 2) ---
  // All context-aware BuildRevReach calls that hit this sink, including
  // difference-pruning comparison rebuilds (counted separately below).
  int64_t tree_builds = 0;
  double tree_build_seconds = 0.0;
  int64_t tree_entries = 0;  // most recent build
  int64_t tree_bytes = 0;    // most recent build (heap footprint)
  int tree_levels = 0;       // most recent build (l_max + 1)

  // --- trial-loop work (Algorithm 1) ---
  int64_t candidates_evaluated = 0;  // non-source candidates scored
  int64_t walks_sampled = 0;         // sqrt(c)-walks drawn
  int64_t walk_steps = 0;            // total walk steps (|W| - 1 summed)
  int64_t tree_hits = 0;             // walk positions with U(i-1, w) != 0

  // --- shared tree cache (serving path; core/tree_cache.h) ---
  // Per-request attribution of TreeCache::GetOrBuild outcomes — the
  // cache-wide cache.* ledger narrowed to this one query. All zero
  // when the query never touched a cache (the CLI/library default).
  int64_t cache_hits = 0;       // calls served by a resident tree
  int64_t cache_misses = 0;     // calls where this query became the builder
  int64_t cache_coalesced = 0;  // calls that waited on another query's build
  double cache_wait_seconds = 0.0;  // wall time inside GetOrBuild

  bool CacheTouched() const {
    return cache_hits + cache_misses + cache_coalesced > 0;
  }

  // --- deadline accounting ---
  bool had_deadline = false;
  // Seconds left on the deadline when the last engine call finished
  // (negative once the deadline has passed). 0 when had_deadline is false.
  double deadline_slack_seconds = 0.0;

  // --- CrashSim-T (Section IV, Algorithm 3) ---
  int snapshots_processed = 0;
  int stable_tree_snapshots = 0;   // source tree unchanged (lines 5-7)
  int source_tree_rebuilds = 0;    // snapshots that rebuilt the source tree
  int source_tree_reuses = 0;      // snapshots that reused the previous tree
  int64_t delta_prune_checks = 0;  // candidates examined by Property 1
  int64_t delta_prune_hits = 0;    // candidates retired by Property 1
  int64_t difference_prune_checks = 0;     // candidates examined by Property 2
  int64_t difference_prune_hits = 0;       // candidates retired by Property 2
  int64_t difference_prefilter_skips = 0;  // Property 2 hits with no rebuild
  int64_t difference_tree_rebuilds = 0;    // literal tree-pair comparisons
  int64_t scores_computed = 0;     // (snapshot, candidate) scores recomputed

  // Per-snapshot pruning breakdown, one entry per snapshot CrashSim-T
  // processed (empty for static queries and the recompute baselines).
  struct SnapshotStats {
    int snapshot = 0;          // snapshot index within the query interval
    int64_t candidates = 0;    // |Omega| entering the snapshot
    int64_t delta_pruned = 0;  // Property 1 hits this snapshot
    int64_t difference_pruned = 0;  // Property 2 hits this snapshot
    int64_t recomputed = 0;    // residual set handed to CrashSim
    bool tree_stable = false;  // source tree stable vs previous snapshot
  };
  std::vector<SnapshotStats> snapshots;

  // Total candidates carried over by either pruning rule.
  int64_t CandidatesSkipped() const {
    return delta_prune_hits + difference_prune_hits;
  }

  // Human-readable two-column table (CLI --stats).
  std::string ToTable() const;
};

// Query-level envelope for the machine-readable export: identifies the
// query and the graph the stats describe.
struct QueryStatsEnvelope {
  std::string query;  // "topk" | "temporal" | "bench" | ...
  std::string algo;   // "crashsim" | "crashsim-t" | ...
  int64_t n = 0;      // graph nodes
  int64_t m = 0;      // graph edges
  double elapsed_seconds = 0.0;  // end-to-end query wall time
};

// Serialises envelope + stats as one JSON object with the stable
// `crashsim.query_stats.v1` schema documented in docs/OBSERVABILITY.md.
// Additive changes only; the "temporal" sub-object is present exactly when
// stats.snapshots_processed > 0.
std::string QueryStatsJson(const QueryStatsEnvelope& envelope,
                           const QueryStats& stats);

}  // namespace crashsim

#endif  // CRASHSIM_CORE_QUERY_STATS_H_
