#ifndef CRASHSIM_CORE_REV_REACH_H_
#define CRASHSIM_CORE_REV_REACH_H_

#include <cstdint>
#include <memory>
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
// level in [0, l_max], stored sparsely in CSR form — one flat Entry array
// sorted by (level, node) plus per-level offsets — so a tree's footprint is
// O(EntryCount()), not O(l_max * n). Probability() is a branchless binary
// search over the level's slice, short-circuited by a per-level bitset on
// levels dense enough to amortise one (most walk steps miss the tree, and
// the bitset answers a miss in one load). See DESIGN.md §3a.
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

  // U(level, v); zero outside the stored range. O(log |level|) worst case,
  // O(1) for misses on bitset-backed levels.
  double Probability(int level, NodeId v) const {
    if (level < 0 || level > max_level()) return 0.0;
    const size_t l = static_cast<size_t>(level);
    const int64_t bits = bits_offset_[l];
    if (bits >= 0 &&
        !((level_bits_[static_cast<size_t>(bits) +
                       (static_cast<size_t>(v) >> 6)] >>
           (static_cast<uint64_t>(v) & 63)) &
          1)) {
      return 0.0;
    }
    // Branchless binary search over the sorted level slice.
    const Entry* base = entries_.data() + level_offsets_[l];
    size_t len =
        static_cast<size_t>(level_offsets_[l + 1] - level_offsets_[l]);
    if (len == 0) return 0.0;
    while (len > 1) {
      const size_t half = len / 2;
      base += (base[half - 1].node < v) ? half : 0;
      len -= half;
    }
    return base->node == v ? base->prob : 0.0;
  }

  // Prefetches the cache lines a subsequent Probability(level, v) touches
  // first: the level's bitset word and the first binary-search pivot. The
  // batch walk engine issues these one round ahead so probe latency overlaps
  // other lanes' advances; a prefetch of an out-of-range level is a no-op.
  void PrefetchProbability(int level, NodeId v) const {
    if (level < 0 || level > max_level()) return;
    const size_t l = static_cast<size_t>(level);
    const int64_t bits = bits_offset_[l];
    if (bits >= 0) {
      __builtin_prefetch(level_bits_.data() + static_cast<size_t>(bits) +
                         (static_cast<size_t>(v) >> 6));
    }
    const size_t len =
        static_cast<size_t>(level_offsets_[l + 1] - level_offsets_[l]);
    if (len > 1) {
      __builtin_prefetch(entries_.data() + level_offsets_[l] + len / 2 - 1);
    }
  }

  // Reusable buffers of ProbabilityBatch (callers keep one across calls so
  // the probe loop never allocates).
  struct ProbeScratch {
    std::vector<const Entry*> base;
    std::vector<size_t> len;
    std::vector<uint32_t> item;
  };

  // Batched probe: out[i] = Probability(levels[i], nodes[i]) for every i.
  // Same results as the scalar probe; the searches run breadth-first in
  // lockstep (every pending probe does one bisection step per round, with
  // the next pivot line prefetched), so up to levels.size() cache misses
  // are in flight at once instead of one — the memory-level parallelism
  // that the batch walk engine's speedup on out-of-cache trees comes from.
  void ProbabilityBatch(std::span<const int> levels,
                        std::span<const NodeId> nodes, std::span<double> out,
                        ProbeScratch* scratch) const;

  // Dense direct-index probe rows: for every level holding at least n/64
  // entries (the same density regime that earns a membership bitset), the
  // level's probabilities flattened into a row of n floats, so a probe is
  // one data-independent load — prob[row_off[level] + v] — instead of a
  // bitset test plus binary search. 0.0f marks absence and rows store the
  // same floats Entry::prob holds, so a dense lookup widened to double is
  // bit-identical to Probability(). row_off[level] is -1 for levels that
  // stay on the search path (too sparse, or past kDenseRowBudgetBytes).
  struct DenseRows {
    std::vector<float> prob;
    std::vector<int64_t> row_off;
  };

  // Returns the dense rows, building them on first use. The build is
  // cached on the tree (the batch walk engine asks once per query, and
  // shared trees — the serving cache, repeated trial blocks — would
  // otherwise re-pay the O(levels * n) scatter every time). Thread-safe:
  // concurrent first calls race through std::call_once.
  // A default-constructed tree returns empty rows.
  const DenseRows& EnsureDenseRows() const;

  // Sparse non-zero entries of one level, sorted by node id.
  std::span<const Entry> Level(int level) const {
    if (level < 0 || level > max_level()) return {};
    const size_t l = static_cast<size_t>(level);
    return {entries_.data() + level_offsets_[l],
            static_cast<size_t>(level_offsets_[l + 1] - level_offsets_[l])};
  }

  // Number of stored levels (max_level() + 1); 0 for a default-constructed
  // tree.
  int num_levels() const {
    return level_offsets_.empty()
               ? 0
               : static_cast<int>(level_offsets_.size()) - 1;
  }

  // Total non-zero (level, node) cells.
  int64_t EntryCount() const { return static_cast<int64_t>(entries_.size()); }

  // Heap bytes held by this tree (entries + offsets + bitsets). The bench
  // harness reports it; the memory-shape regression test pins it to
  // O(EntryCount()), not O(l_max * n).
  int64_t MemoryBytes() const;

  // Sorted unique nodes appearing at any level (the tree's support) —
  // "the altered nodes in the reverse reachable tree" of Theorem 2 are
  // detected against this set.
  std::vector<NodeId> SupportNodes() const;

  // Exact structural equality (same levels, nodes, and probabilities) —
  // the test used by difference pruning (Property 2).
  friend bool operator==(const ReverseReachableTree& a,
                         const ReverseReachableTree& b);

 private:
  friend StatusOr<ReverseReachableTree> BuildRevReach(const Graph&, NodeId,
                                                      int, double,
                                                      RevReachMode, double,
                                                      const QueryContext*);

  // Appends one materialised level (entries sorted by node) and, when the
  // level is dense enough that n/64 bitset words cost less than a few bytes
  // per entry, its membership bitset.
  void AppendLevel(std::span<const Entry> level);

  NodeId n_ = 0;
  NodeId source_ = -1;
  std::vector<Entry> entries_;          // CSR payload, sorted by (level, node)
  std::vector<int64_t> level_offsets_;  // size num_levels() + 1
  // Per-level fast-reject bitsets, concatenated. bits_offset_[l] is the
  // word offset of level l's n-bit set inside level_bits_, or -1 when the
  // level is sparse enough that binary search alone is the better trade.
  std::vector<uint64_t> level_bits_;
  std::vector<int64_t> bits_offset_;
  // Lazily built dense probe rows, boxed so the tree stays movable (a
  // std::once_flag is neither movable nor copyable). Allocated by the
  // first AppendLevel — i.e. during the single-threaded build — and null
  // for a default-constructed tree. Copies share the box, which is sound
  // because the rows are a pure function of the immutable tree content.
  struct DenseCache;
  mutable std::shared_ptr<DenseCache> dense_cache_;
};

// Cap on the bytes of dense probe rows one tree may cache (a row costs
// 4 * n bytes). Levels densify in level order until the budget runs out;
// the remainder keeps the bitset + binary-search path. 128 MB covers every
// level of any query-sized tree while staying far below the resident set
// of the graphs such trees come from.
inline constexpr size_t kDenseRowBudgetBytes = size_t{128} << 20;

// Builds the tree: l_max + 1 levels, level 0 = {u: 1}. Entries whose
// probability falls below prune_threshold are dropped (0 keeps everything
// non-zero; CrashSim uses a tiny epsilon-scaled default to bound work).
// Worst case O(l_max * m) time, matching the paper's O(m)-per-level claim;
// peak memory is O(n) scratch plus the packed output.
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
