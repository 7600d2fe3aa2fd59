#ifndef CRASHSIM_SIMRANK_PROBESIM_H_
#define CRASHSIM_SIMRANK_PROBESIM_H_

#include <string>
#include <vector>

#include "core/query_context.h"
#include "simrank/simrank.h"
#include "util/rng.h"

namespace crashsim {

// ProbeSim (Liu et al., PVLDB 2017) — the index-free state of the art the
// paper baselines against (Section II-D).
//
// Per trial it samples one reverse sqrt(c)-walk W(u) = (w_1 = u, ..., w_l)
// and, for every position i in [2, l], performs a PROBE from w_i: a
// level-synchronised expansion along *out*-edges that computes, for every
// node v, the first-meeting probability
//   P(v, W(u, i)) = Pr[v_i = w_i, v_j != w_j for j < i]          (Def. 7)
// of a sqrt(c)-walk from v. First-meeting is enforced by zeroing the
// expansion mass at node w_j when the probe reaches walk position j. The
// probe is why ProbeSim is expensive: each trial touches the out-neighbour-
// hood of the whole walk up to depth i-1 (the redundancy CrashSim removes).
class ProbeSim : public SimRankAlgorithm {
 public:
  explicit ProbeSim(const SimRankOptions& options);

  std::string name() const override { return "ProbeSim"; }
  void Bind(const Graph* g) override;

  // Number of trials the current options yield on an n-node graph.
  int64_t TrialsFor(NodeId n) const;

  // Probe expansion drops mass below this threshold (keeps probes bounded;
  // contributes at most prune_threshold * l_max to the estimate).
  void set_prune_threshold(double t) { prune_threshold_ = t; }

 protected:
  // Trial blocks grow 1, 2, 4, ..., 64 with a deadline/cancellation
  // checkpoint between blocks, the same anytime contract as CrashSim — a
  // partial answer is the exact result of trials_done trials (the member
  // RNG is consumed sequentially, so the prefix matches a fresh run with
  // trials_override = trials_done), and the context's trial fraction
  // shrinks the budget under executor load.
  PartialResult SingleSourceImpl(NodeId u, QueryContext* ctx) override;

 private:
  // Adds P(v, W(u, i)) for all v into scores (unnormalised trial sums).
  void Probe(const std::vector<NodeId>& walk, int i,
             std::vector<double>* scores);

  SimRankOptions options_;
  double sqrt_c_ = 0.0;
  int max_walk_length_ = 64;
  double prune_threshold_ = 1e-7;
  Rng rng_;

  // Probe scratch: dense level buffers plus touched lists (reset per level).
  std::vector<double> level_cur_;
  std::vector<double> level_next_;
  std::vector<NodeId> touched_cur_;
  std::vector<NodeId> touched_next_;
};

}  // namespace crashsim

#endif  // CRASHSIM_SIMRANK_PROBESIM_H_
