#ifndef CRASHSIM_CORE_REV_REACH_H_
#define CRASHSIM_CORE_REV_REACH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/query_context.h"
#include "graph/graph.h"
#include "util/status.h"

namespace crashsim {

// Which revReach recurrence to run.
//
// kPaper reproduces Algorithm 2 verbatim: expanding tree node (l, x) adds
// child (l+1, v) for each in-neighbour v of x except x's tree parent, with
//   U(l+1, v) = sqrt(c) / |I(v)| * U(l, x).
// The |I(v)| denominator and the parent exclusion match the paper's worked
// Example 2 exactly (U(1,B)=0.25 with |I(B)|=2, U(1,C)=0.167 with |I(C)|=3).
// Contributions to the same (level, node) cell are summed — the pseudocode
// stores U as a matrix, so distinct tree branches landing on one cell must
// collapse — and each cell's excluded parent is its first contributor,
// mirroring the FIFO order of the paper's queue. Note this recurrence is
// *not* the true walk marginal (that would divide by |I(x)|); it is what the
// published algorithm computes.
//
// kCorrected computes the true sqrt(c)-walk occupancy marginal
//   U(l+1, v) += sqrt(c) / |I(x)| * U(l, x)  for v in I(x),
// i.e. U(l, v) = Pr[W(u) occupies v at step l]. Combined with diagonal
// corrections d(w) in CrashSim's scoring this yields a consistent estimator
// of SimRank (the SLING last-meeting decomposition); see DESIGN.md §3.
enum class RevReachMode { kPaper, kCorrected };

// The truncated reverse-reachable tree of a source u: U(level, v) for
// level in [0, l_max]. Each level is stored once, in the form its size
// earns as the builder collects it (DESIGN.md §3a):
//   * dense — a level past level 0 holding at least max(1, n/64) entries,
//     while the tree's rows fit kDenseRowBudgetBytes, is one row of n
//     floats indexed by node (0.0f marks absence), so a probe is one load;
//   * sparse — every other level is a slice of Entry pairs sorted by node
//     inside one flat CSR array, searched branchlessly.
// A row holds at least n/64 entries in 4n bytes (at most 256 bytes per
// entry) and a slice 8 bytes per entry, so a tree's footprint is
// O(EntryCount()), not O(l_max * n).
class ReverseReachableTree {
 public:
  struct Entry {
    NodeId node;
    float prob;
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  ReverseReachableTree() = default;

  NodeId num_nodes() const { return n_; }
  int max_level() const { return num_levels() - 1; }
  NodeId source() const { return source_; }

  // U(level, v); zero outside the stored range. One load on a dense level,
  // an O(log |level|) search on a sparse one.
  double Probability(int level, NodeId v) const {
    if (const float* row = Row(level); row != nullptr) {
      return row[static_cast<size_t>(v)];
    }
    // Branchless binary search over the sorted level slice.
    const std::span<const Entry> slice = Level(level);
    if (slice.empty()) return 0.0;
    const Entry* base = slice.data();
    size_t len = slice.size();
    while (len > 1) {
      const size_t half = len / 2;
      base += (base[half - 1].node < v) ? half : 0;
      len -= half;
    }
    return base->node == v ? base->prob : 0.0;
  }

  // Batched probe of one level: out[i] = Probability(level, nodes[i]) for
  // every i. The level's form is looked up once; on a sparse level each
  // search is branchless, so the searches of different nodes are
  // independent chains of loads that the CPU overlaps.
  void ProbabilityBatch(int level, std::span<const NodeId> nodes,
                        std::span<double> out) const;

  // The dense levels' rows, flattened: level l's row is
  // prob[row_off[l], row_off[l] + n), and row_off[l] is -1 for a sparse
  // level. A row cell holds the float an Entry for that cell would hold,
  // so the form a level takes never shows in a probe's result.
  struct DenseRows {
    std::vector<float> prob;
    std::vector<int64_t> row_off;
  };

  // The dense rows, written by BuildRevReach as it collects each level —
  // the only copy of those levels. A default-constructed tree has none.
  const DenseRows& EnsureDenseRows() const { return dense_; }

  // The stored slice of a sparse level, sorted by node id. Empty for a
  // dense level, whose cells live in its row: LevelEntries() enumerates a
  // level whatever its form.
  std::span<const Entry> Level(int level) const {
    if (level < 0 || level > max_level()) return {};
    const size_t l = static_cast<size_t>(level);
    return {entries_.data() + level_offsets_[l],
            static_cast<size_t>(level_offsets_[l + 1] - level_offsets_[l])};
  }

  // The non-zero cells of one level in node order, whatever its form: a
  // copy of a sparse level's slice, or a scan of a dense level's row
  // (O(n)). For tests and tools; walks probe the level's own form.
  std::vector<Entry> LevelEntries(int level) const;

  // Number of stored levels (max_level() + 1); 0 for a default-constructed
  // tree.
  int num_levels() const {
    return level_offsets_.empty()
               ? 0
               : static_cast<int>(level_offsets_.size()) - 1;
  }

  // Total non-zero (level, node) cells over both forms.
  int64_t EntryCount() const { return entry_count_; }

  // Heap bytes held by this tree: dense rows, sparse slices, and the two
  // per-level offset arrays. The serving cache charges it against
  // --cache_mb; the memory-shape regression test pins it to
  // O(EntryCount()), not O(l_max * n).
  int64_t MemoryBytes() const;

  // Exact structural equality (same levels, nodes, and probabilities) —
  // the test used by difference pruning (Property 2). A level's form is a
  // function of the level sizes, so equal trees store equal forms.
  friend bool operator==(const ReverseReachableTree& a,
                         const ReverseReachableTree& b);

 private:
  friend StatusOr<ReverseReachableTree> BuildRevReach(const Graph&, NodeId,
                                                      int, double,
                                                      RevReachMode, double,
                                                      const QueryContext*);

  // Appends one collected level (entries sorted by node) in the form its
  // size earns: scattered into a new dense row, or copied into entries_.
  void AppendLevel(std::span<const Entry> level);
  // A dense level's row; nullptr for a sparse level or one out of range.
  const float* Row(int level) const {
    if (level < 0 || level > max_level()) return nullptr;
    const int64_t off = dense_.row_off[static_cast<size_t>(level)];
    return off < 0 ? nullptr : dense_.prob.data() + off;
  }

  NodeId n_ = 0;
  NodeId source_ = -1;
  int64_t entry_count_ = 0;
  // Sparse levels' slices, sorted by (level, node); level_offsets_ has
  // num_levels() + 1 slots, and a dense level's slice is empty.
  std::vector<Entry> entries_;
  std::vector<int64_t> level_offsets_;
  DenseRows dense_;  // row_off has num_levels() slots
};

// Cap on the bytes of dense rows one tree may hold (a row costs 4 * n
// bytes). Levels densify in level order until the budget runs out; the
// remainder stays sparse. 128 MB covers every level of any query-sized tree
// while staying far below the resident set of the graphs such trees come
// from.
inline constexpr size_t kDenseRowBudgetBytes = size_t{128} << 20;

// Builds the tree: l_max + 1 levels, level 0 = {u: 1}. Entries whose
// probability falls below prune_threshold are dropped (0 keeps everything
// non-zero; CrashSim uses a tiny epsilon-scaled default to bound work).
// Each level pushes the frontier's in-edges into an n-float accumulator and
// marks the reached nodes in an n-bit set, then collects the level in node
// order by scanning the set and stores it as a row or a slice:
// O(tree edges + l_max * n/64) time plus O(n) per dense row, no sort,
// within the paper's O(m)-per-level claim. Peak memory is O(n) scratch
// (plus three n-entry parent arrays in paper mode) and the tree itself.
// CHECK-fails on an out-of-range source (programmer error on this path).
ReverseReachableTree BuildRevReach(const Graph& g, NodeId u, int l_max,
                                   double c, RevReachMode mode,
                                   double prune_threshold = 0.0);

// Deadline/cancellation-aware variant: the context (nullptr = unbounded) is
// checked once per level — the build's natural O(m) work quantum — and an
// out-of-range source is a kInvalidArgument Status instead of a CHECK.
[[nodiscard]] StatusOr<ReverseReachableTree> BuildRevReach(
    const Graph& g, NodeId u, int l_max, double c, RevReachMode mode,
                                             double prune_threshold,
                                             const QueryContext* ctx);

}  // namespace crashsim

#endif  // CRASHSIM_CORE_REV_REACH_H_
