#ifndef CRASHSIM_CORE_WALK_BATCH_H_
#define CRASHSIM_CORE_WALK_BATCH_H_

#include <cstdint>
#include <span>

#include "core/rev_reach.h"
#include "graph/graph.h"
#include "simrank/alias_sampler.h"

namespace crashsim {

// Upper bound on CrashSimOptions::batch_size, the walks swept per tile. A
// tile's buffers take 64 bytes per walk, so even 4096 walks (256 KiB) stay
// in L2 beside the tree level being probed; past a few hundred walks the
// per-level loop overhead is already amortised.
inline constexpr int kMaxWalkBatch = 4096;

// Per-candidate observability slot filled by WalkBatchEngine::Run. The
// counts are integers, so they commute: totals depend only on the jobs run,
// never on batch size, thread count, or sweep order.
struct WalkBatchStats {
  int64_t walk_steps = 0;
  int64_t tree_hits = 0;
};

// The Monte-Carlo inner loop of CrashSim (Algorithm 1 lines 8-11) as a
// step-major sweep: the (candidate, trial) walks are cut into tiles of
// batch_size, and a tile advances all its live walks one step at a time,
// so step s probes tree level s only (DESIGN.md §3b).
//
// Tree probes follow the form each level is stored in
// (ReverseReachableTree): a probe against a dense level is ONE load from
// its row (ReverseReachableTree::EnsureDenseRows, the level's only copy,
// shared by every engine over the tree), which stays in L1 for the whole
// step; a sparse level is searched for the whole step at once by
// ProbabilityBatch. Both return what Probability() does, so the
// resolution path is invisible in the output.
//
// Bit-identity contract (the reason this class can replace the scalar loop
// wholesale): the output is a pure function of (stream_salt, candidate,
// trial range) per candidate. It does not depend on batch_size, on how the
// caller splits candidates across Run calls or threads, or on the order
// of the sweep, because
//   * walk (candidate, trial) draws from its private SplitMix64 stream
//     seeded PerWalkSeed(stream_salt, candidate, trial) — one draw for the
//     walk length (DiscreteSampler over the truncated-geometric
//     distribution), then exactly one draw per step mapped uniformly onto
//     the in-neighbour row (see util/rng.h for the derivation contract);
//   * floating-point crash mass is folded deterministically: per walk in
//     step order into the walk's own slot, then per candidate in trial
//     order straight into the caller's accumulator — the same grouping the
//     scalar reference path uses. Run([a, b)) followed by Run([b, c)) on
//     the same accumulator is therefore bitwise Run([a, c)).
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
  // add nothing, and neither do candidates with no in-neighbours: every
  // walk from one stops before its first step, so its mass and counts are
  // 0 whether or not it is drawn. Callers parallelise by candidate range:
  // disjoint sub-spans (with mass/stats sliced to match) write disjoint
  // slots, and per the contract above the results do not depend on the
  // split.
  void Run(std::span<const NodeId> candidates, NodeId skip,
           int64_t trial_begin, int64_t trial_end, std::span<double> mass,
           std::span<WalkBatchStats> stats) const;

 private:
  // Borrowed view of the tree's dense rows (storage owned by the tree,
  // which outlives the engine). levels is 0 for a default-constructed
  // tree; the scalar path probes through Probability() instead.
  struct DenseView {
    const float* prob = nullptr;
    const int64_t* row_off = nullptr;
    size_t levels = 0;
  };

  // True when candidate v draws walks: it is not `skip` and a walk from it
  // can take a step.
  bool DrawsWalks(NodeId v, NodeId skip) const {
    return v != skip && g_.InDegree(v) > 0;
  }

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
