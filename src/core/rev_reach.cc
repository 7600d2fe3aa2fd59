#include "core/rev_reach.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <new>

#include "core/query_stats.h"
#include "simrank/simrank.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/memory_budget.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace crashsim {

int64_t ReverseReachableTree::MemoryBytes() const {
  return static_cast<int64_t>(dense_.prob.capacity() * sizeof(float) +
                              entries_.capacity() * sizeof(Entry) +
                              (level_offsets_.capacity() +
                               dense_.row_off.capacity()) *
                                  sizeof(int64_t));
}

std::vector<ReverseReachableTree::Entry> ReverseReachableTree::LevelEntries(
    int level) const {
  const float* row = Row(level);
  if (row == nullptr) {
    const std::span<const Entry> slice = Level(level);
    return {slice.begin(), slice.end()};
  }
  std::vector<Entry> out;
  for (NodeId v = 0; v < n_; ++v) {
    if (row[v] != 0.0f) out.push_back({v, row[v]});
  }
  return out;
}

void ReverseReachableTree::ProbabilityBatch(int level,
                                            std::span<const NodeId> nodes,
                                            std::span<double> out) const {
  CRASHSIM_CHECK(out.size() >= nodes.size());
  if (const float* row = Row(level); row != nullptr) {
    for (size_t i = 0; i < nodes.size(); ++i) out[i] = row[nodes[i]];
    return;
  }
  const std::span<const Entry> slice = Level(level);
  if (slice.empty()) {
    std::fill_n(out.begin(), nodes.size(), 0.0);
    return;
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const NodeId v = nodes[i];
    // The search of Probability(), with both selects as masks: the nodes
    // are data-random, so a branch would mispredict half the time.
    const Entry* base = slice.data();
    for (size_t len = slice.size(); len > 1;) {
      const size_t half = len / 2;
      base += half & (0 - static_cast<size_t>(base[half - 1].node < v));
      len -= half;
    }
    const uint32_t match = 0u - static_cast<uint32_t>(base->node == v);
    out[i] = static_cast<double>(
        std::bit_cast<float>(std::bit_cast<uint32_t>(base->prob) & match));
  }
}

bool operator==(const ReverseReachableTree& a, const ReverseReachableTree& b) {
  return a.n_ == b.n_ && a.source_ == b.source_ &&
         a.entry_count_ == b.entry_count_ &&
         a.level_offsets_ == b.level_offsets_ &&
         a.dense_.row_off == b.dense_.row_off && a.entries_ == b.entries_ &&
         a.dense_.prob == b.dense_.prob;
}

void ReverseReachableTree::AppendLevel(std::span<const Entry> level) {
  // Below n/64 entries the probes rarely share a cache line and the compact
  // search is the better trade. Level 0 holds only the source and is never
  // probed by a walk (positions start at 1), so it never earns a row.
  const size_t n = static_cast<size_t>(n_);
  const size_t row_start = dense_.prob.size();
  const bool dense = num_levels() > 0 &&
                     level.size() >= std::max<size_t>(1, n / 64) &&
                     (row_start + n) * sizeof(float) <= kDenseRowBudgetBytes;
  entry_count_ += static_cast<int64_t>(level.size());
  if (dense) {
    dense_.row_off.push_back(static_cast<int64_t>(row_start));
    dense_.prob.resize(row_start + n, 0.0f);
    float* row = dense_.prob.data() + row_start;
    for (const Entry& e : level) row[static_cast<size_t>(e.node)] = e.prob;
  } else {
    dense_.row_off.push_back(-1);
    entries_.insert(entries_.end(), level.begin(), level.end());
  }
  level_offsets_.push_back(static_cast<int64_t>(entries_.size()));
}

ReverseReachableTree BuildRevReach(const Graph& g, NodeId u, int l_max,
                                   double c, RevReachMode mode,
                                   double prune_threshold) {
  CRASHSIM_CHECK(u >= 0 && u < g.num_nodes());
  // Without a context the StatusOr variant can only fail on a bad source,
  // which the CHECK above already rules out.
  return BuildRevReach(g, u, l_max, c, mode, prune_threshold, nullptr)
      .value();
}

// Bytes of O(n) build scratch: cur[], touched's words, paper mode's parents.
static int64_t BuildScratchBytes(NodeId n, RevReachMode mode) {
  const int64_t per_node =
      sizeof(float) + (mode == RevReachMode::kPaper ? 3 * sizeof(NodeId) : 0);
  return int64_t{n} * per_node + (int64_t{n} + 63) / 64 * 8;
}

StatusOr<ReverseReachableTree> BuildRevReach(const Graph& g, NodeId u,
                                             int l_max, double c,
                                             RevReachMode mode,
                                             double prune_threshold,
                                             const QueryContext* ctx) {
  // Loader-OOM contract (docs/ROBUSTNESS.md): allocation failures below —
  // real ones or bad_alloc injected through the rev_reach.alloc failpoint —
  // are caught at the end of this function and surface as a clean
  // kResourceExhausted with the byte estimate, never as a crash.
  const int64_t scratch_bytes = BuildScratchBytes(g.num_nodes(), mode);
  try {
  RETURN_IF_ERROR(ValidateNodeId(u, g.num_nodes(), "source"));
  CRASHSIM_CHECK_GE(l_max, 0);
  TRACE_SPAN("rev_reach.build");
  RETURN_IF_ERROR(CRASHSIM_FAILPOINT("rev_reach.build"));
  const Stopwatch build_timer;
  const double sqrt_c = std::sqrt(c);
  const NodeId n = g.num_nodes();
  const bool paper = mode == RevReachMode::kPaper;

  // Per-query memory accounting (util/memory_budget.h): the O(n) build
  // scratch is charged up front and refunded when the build ends; the
  // tree's own bytes are charged level by level and stay charged on success
  // (the tree outlives the build — the per-query budget is torn down with
  // the query). Every error path refunds through the RAII guards.
  MemoryBudget* budget = ctx != nullptr ? ctx->memory_budget() : nullptr;
  int64_t scratch_charged = 0;
  int64_t tree_charged = 0;
  ScopedBudgetRelease scratch_release(budget, &scratch_charged);
  ScopedBudgetRelease tree_release(budget, &tree_charged);
  if (budget != nullptr) {
    RETURN_IF_ERROR(budget->Charge(scratch_bytes, "revReach build scratch"));
    scratch_charged = scratch_bytes;
  }
  ReverseReachableTree tree;
  tree.n_ = n;
  tree.source_ = u;
  tree.level_offsets_.reserve(static_cast<size_t>(l_max) + 2);
  tree.level_offsets_.push_back(0);
  tree.dense_.row_off.reserve(static_cast<size_t>(l_max) + 1);

  // Charges the growth of the tree's footprint since the last call; *not*
  // charged: transient frontier/level buffers (covered by the scratch term).
  auto charge_tree_growth = [&]() -> Status {
    if (budget == nullptr) return OkStatus();
    const int64_t now_bytes = tree.MemoryBytes();
    if (now_bytes <= tree_charged) return OkStatus();
    RETURN_IF_ERROR(budget->Charge(now_bytes - tree_charged, "revReach tree"));
    tree_charged = now_bytes;
    return OkStatus();
  };

  // O(n) scratch, cleared as each level is collected: cur[v] sums the next
  // level (float, double-precision products); touched marks each v reached.
  RETURN_IF_ERROR(CRASHSIM_FAILPOINT("rev_reach.alloc"));
  std::vector<float> cur(static_cast<size_t>(n), 0.0f);
  std::vector<uint64_t> touched((static_cast<size_t>(n) + 63) / 64, 0);
  // Paper mode only: first_parent[v] = first, so smallest, contributor to v
  // on the next level (n if none); parent_of[x] = tree parent of x.
  const size_t paper_n = paper ? static_cast<size_t>(n) : 0;
  std::vector<NodeId> first_parent(paper_n, n);
  std::vector<NodeId> parent_of(paper_n, -1);
  std::vector<NodeId> next_parent_of(paper_n, -1);

  std::vector<ReverseReachableTree::Entry> frontier{{u, 1.0f}};
  std::vector<ReverseReachableTree::Entry> level_entries;
  tree.AppendLevel(frontier);

  for (int level = 0; level < l_max && !frontier.empty(); ++level) {
    // One deadline/cancel checkpoint per level: each level is O(m) work, the
    // build's natural quantum.
    if (ctx != nullptr) RETURN_IF_ERROR(ctx->Check());
    // Push: the frontier is sorted by node, so every cur[v] receives its
    // additions in ascending-x order — the order the tree's bits depend on.
    for (const auto& [x, prob] : frontier) {
      const auto in = g.InNeighbors(x);
      const NodeId exclude = paper ? parent_of[static_cast<size_t>(x)] : -1;
      // Corrected mode divides by the parent's in-degree: one term per x.
      const float term = static_cast<float>(
          static_cast<double>(prob) *
          (sqrt_c / static_cast<double>(std::max<size_t>(1, in.size()))));
      for (NodeId v : in) {
        if (v == exclude) continue;
        const size_t vi = static_cast<size_t>(v);
        touched[vi >> 6] |= uint64_t{1} << (vi & 63);
        if (!paper) {
          cur[vi] += term;
          continue;
        }
        first_parent[vi] = std::min(first_parent[vi], x);
        // Paper mode divides by the *child's* in-degree (Algorithm 2 line
        // 12); the pseudocode leaves |I(v)| = 0 undefined, so clamp to 1 —
        // such a child is a leaf of the tree either way.
        cur[vi] += static_cast<float>(
            static_cast<double>(prob) *
            (sqrt_c / static_cast<double>(std::max(1, g.InDegree(v)))));
      }
    }
    // Collect the level from the bitset in node order (already sorted),
    // prune, reset the scratch, and roll the parent records.
    level_entries.clear();
    for (size_t w = 0; w < touched.size(); ++w) {
      for (uint64_t bits = touched[w]; bits != 0; bits &= bits - 1) {
        const size_t vi = w * 64 + static_cast<size_t>(std::countr_zero(bits));
        if (cur[vi] > prune_threshold) {
          level_entries.push_back({static_cast<NodeId>(vi), cur[vi]});
          if (paper) next_parent_of[vi] = first_parent[vi];
        }
        cur[vi] = 0.0f;
        if (paper) first_parent[vi] = n;
      }
      touched[w] = 0;
    }
    tree.AppendLevel(level_entries);
    RETURN_IF_ERROR(charge_tree_growth());
    parent_of.swap(next_parent_of);
    frontier.swap(level_entries);
  }
  // A frontier that dies early still owes the tree its l_max + 1 levels
  // (trailing empties), preserving the dense representation's shape.
  while (tree.max_level() < l_max) tree.AppendLevel({});
  tree.entries_.shrink_to_fit();
  tree.dense_.prob.shrink_to_fit();
  if (budget != nullptr) {
    // shrink_to_fit may have returned growth slack, and a build without a
    // pushed level charged nothing yet; settle the charge to the final
    // footprint, then keep it charged for the query's lifetime.
    const int64_t final_bytes = tree.MemoryBytes();
    if (final_bytes < tree_charged) {
      budget->Release(tree_charged - final_bytes);
      tree_charged = final_bytes;
    } else {
      RETURN_IF_ERROR(charge_tree_growth());
    }
    tree_release.Dismiss();
  }
  // Observability: every context-aware build reports into the query's stats
  // sink (tree_entries/bytes/levels keep the most recent build; builds and
  // build time accumulate — see query_stats.h).
  if (ctx != nullptr && ctx->stats() != nullptr) {
    QueryStats& qs = *ctx->stats();
    ++qs.tree_builds;
    qs.tree_build_seconds += build_timer.ElapsedSeconds();
    qs.tree_entries = tree.EntryCount();
    qs.tree_bytes = tree.MemoryBytes();
    qs.tree_levels = tree.num_levels();
  }
  return tree;
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError(StrFormat(
        "out of memory building revReach tree for source %lld "
        "(n=%lld nodes, ~%lld bytes of build scratch)",
        static_cast<long long>(u), static_cast<long long>(g.num_nodes()),
        static_cast<long long>(scratch_bytes)));
  }
}

}  // namespace crashsim
