#ifndef CRASHSIM_SIMRANK_READS_H_
#define CRASHSIM_SIMRANK_READS_H_

#include <string>
#include <vector>

#include "core/query_context.h"
#include "graph/temporal_graph.h"
#include "simrank/simrank.h"
#include "util/rng.h"

namespace crashsim {

// Tuning knobs following the paper's Section V configuration:
// "For READS algorithm, we set r = 100, r_q = 10, and t = 10."
struct ReadsOptions {
  int r = 100;    // indexed one-way graphs (samples)
  int r_q = 10;   // fresh source walks drawn at query time
  int t = 10;     // walk length cap (steps)
  uint64_t seed = 42;
  double c = 0.6;

  // Domain check mirroring SimRankOptions::Validate: c in (0, 1), r >= 1,
  // t >= 1, 0 <= r_q <= r.
  [[nodiscard]] Status Validate() const;
};

// READS (Jiang et al., PVLDB 2017) — the index-based dynamic baseline.
//
// The index is r "one-way graphs": in sample j every node keeps at most one
// in-edge, chosen uniformly with probability sqrt(c) (otherwise the walk
// stops there). A sqrt(c)-walk within a sample is then a deterministic
// pointer chase, and two walks that meet stay merged — which is exactly the
// first-meeting coupling SimRank needs. s(u, v) is estimated as the fraction
// of samples in which the pointer chains of u and v occupy the same node at
// the same step. The first r_q samples additionally use a *fresh* random
// source walk per query (variance reduction at query time, READS's r_q
// mechanism).
//
// Dynamic maintenance: inserting/deleting edge x -> y changes I(y) only, so
// each sample just resamples y's pointer — O(r) per edge event. Update()
// runs this instead of rebuilding, so READS-T repairs its index per snapshot.
class Reads : public SimRankAlgorithm {
 public:
  explicit Reads(const ReadsOptions& options);

  std::string name() const override { return "READS"; }
  [[nodiscard]] Status Bind(const Graph* g) override;
  [[nodiscard]] Status Update(const Graph* next,
                              const EdgeDelta& delta) override {
    ApplyDelta(delta, next);
    return OkStatus();
  }

  // Applies an edge delta to the bound graph's index. `updated` must be the
  // post-delta graph (the caller owns snapshot materialisation); the index
  // repair touches only the destination endpoints of changed edges.
  void ApplyDelta(const EdgeDelta& delta, const Graph* updated);

  int64_t IndexBytes() const;

 protected:
  // READS has no trial loop to shrink — r is baked into the index — so
  // progress is counted in *candidates scored*: trials_target = n,
  // trials_done = candidates fully chased, with a deadline/cancellation
  // checkpoint every 256 candidates (the pointer chases between checkpoints
  // are pure index reads). A partial answer scores candidates
  // [0, trials_done) exactly as the full run would and leaves the rest at 0;
  // epsilon_achieved stays +infinity (READS carries no epsilon parameter).
  PartialResult SingleSourceImpl(NodeId u, QueryContext* ctx) override;

 private:
  // Resamples the pointer of node v in every sample.
  void ResampleNode(NodeId v);

  ReadsOptions options_;
  double sqrt_c_ = 0.0;
  Rng rng_;
  // next_[j * n + v] = successor of v in sample j, or -1 (stop).
  std::vector<NodeId> next_;
};

}  // namespace crashsim

#endif  // CRASHSIM_SIMRANK_READS_H_
