#ifndef CRASHSIM_CORE_WALK_BATCH_H_
#define CRASHSIM_CORE_WALK_BATCH_H_

#include <cstdint>
#include <span>

#include "core/rev_reach.h"
#include "graph/graph.h"
#include "simrank/alias_sampler.h"

namespace crashsim {

// Upper bound on CrashSimOptions::batch_size. Past a few hundred lanes the
// SoA state itself stops fitting in L1/L2 and the memory-level-parallelism
// win flattens; 4096 leaves generous headroom above the measured knee.
inline constexpr int kMaxWalkBatch = 4096;

// Per-candidate observability slot filled by WalkBatchEngine::Run. The
// counts are integers, so they commute: totals depend only on the jobs run,
// never on batch size, thread count, or lane scheduling.
struct WalkBatchStats {
  int64_t walk_steps = 0;
  int64_t tree_hits = 0;
};

// The Monte-Carlo inner loop of CrashSim (Algorithm 1 lines 8-11),
// restructured as a structure-of-arrays batch: up to batch_size candidate
// walks are advanced in lockstep, with contiguous per-lane state (cur node,
// position, length, raw SplitMix64 state) and software prefetch of the next
// step's CSR row and tree probe.
//
// Tree probes — the dominant cost of a trial — resolve through the tree's
// dense direct-index rows (ReverseReachableTree::EnsureDenseRows, built
// once per tree and shared by every engine over it): a probe against a
// densified level is ONE cache-friendly load of the exact float
// Entry::prob holds, so widening it is bit-identical to Probability().
// Sparse levels (and everything past kDenseRowBudgetBytes) fall back to
// the lockstep batched binary search ProbabilityBatch, so the resolution
// path is invisible in the output.
//
// Bit-identity contract (the reason this class can replace the scalar loop
// wholesale): the output is a pure function of (stream_salt, candidate,
// trial range) per candidate. It does not depend on batch_size, on how the
// caller splits candidates across Run calls or threads, or on lane
// scheduling, because
//   * walk (candidate, trial) draws from its private SplitMix64 stream
//     seeded PerWalkSeed(stream_salt, candidate, trial) — one draw for the
//     walk length (DiscreteSampler over the truncated-geometric
//     distribution), then exactly one draw per step mapped uniformly onto
//     the in-neighbour row (see util/rng.h for the derivation contract);
//   * floating-point crash mass is folded deterministically: per walk in
//     step order, then per candidate in trial order straight into the
//     caller's accumulator — the same grouping the scalar reference path
//     uses. Run([a, b)) followed by Run([b, c)) on the same accumulator is
//     therefore bitwise Run([a, c)).
// The scalar path (batch_size = 1, also used for tiny jobs) is therefore
// not an approximation of the batched one but an exact twin; the
// differential suite tests/core/walk_batch_test.cc holds them equal.
//
// Instances are immutable after construction and safe to share across
// threads; Run is const and allocates its own scratch.
class WalkBatchEngine {
 public:
  // tree: the source's reverse-reachable tree every walk position is scored
  // against. diag: corrected-mode diagonal weights d(w), empty in paper
  // mode. max_walk_nodes: l_max + 1 (walk of l_max steps so tree level
  // l_max is reachable). The referenced graph, tree, and diag must outlive
  // the engine; all are borrowed.
  WalkBatchEngine(const Graph& g, const ReverseReachableTree& tree,
                  std::span<const double> diag, double sqrt_c,
                  int max_walk_nodes, uint64_t stream_salt, int batch_size);

  // Runs trials [trial_begin, trial_end) of every candidate except `skip`
  // (pass -1 to keep all), accumulating
  //   mass[ci]  += crash mass against the tree,
  //   stats[ci] += walk steps / tree hits (may be empty to skip stats
  //                collection),
  // where ci indexes `candidates`. Skipped candidates consume no draws and
  // add nothing. Callers parallelise by candidate range: disjoint
  // sub-spans (with mass/stats sliced to match) write disjoint slots, and
  // per the contract above the results do not depend on the split.
  void Run(std::span<const NodeId> candidates, NodeId skip,
           int64_t trial_begin, int64_t trial_end, std::span<double> mass,
           std::span<WalkBatchStats> stats) const;

 private:
  struct Scratch;

  // Borrowed view of the tree's dense probe rows (storage owned by the
  // tree's cache, which outlives the engine with the tree itself). levels
  // is 0 when the engine runs scalar and never asked for rows.
  struct DenseView {
    const float* prob = nullptr;
    const int64_t* row_off = nullptr;
    size_t levels = 0;
  };

  void RunScalar(std::span<const NodeId> candidates, NodeId skip,
                 int64_t trial_begin, int64_t trial_end,
                 std::span<double> mass,
                 std::span<WalkBatchStats> stats) const;
  void RunBatched(std::span<const NodeId> candidates, NodeId skip,
                  int64_t trial_begin, int64_t trial_end,
                  std::span<double> mass,
                  std::span<WalkBatchStats> stats) const;

  const Graph& g_;
  const ReverseReachableTree* tree_;
  std::span<const double> diag_;
  uint64_t salt_ = 0;
  int batch_size_ = 1;
  DiscreteSampler len_sampler_;
  DenseView dense_;
};

}  // namespace crashsim

#endif  // CRASHSIM_CORE_WALK_BATCH_H_
