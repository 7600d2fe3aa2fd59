#ifndef CRASHSIM_SIMRANK_MONTE_CARLO_H_
#define CRASHSIM_SIMRANK_MONTE_CARLO_H_

#include <string>

#include "simrank/simrank.h"
#include "util/rng.h"

namespace crashsim {

// The textbook Monte-Carlo SimRank estimator (Fogaras & Rácz, WWW'05, in
// its sqrt(c)-walk form): for each candidate v, sample `trials` independent
// *pairs* of sqrt(c)-walks from u and from v and count the fraction that
// occupy the same node at the same step >= 1 (first meeting; walks are
// fresh per pair, so there is no cross-candidate coupling).
//
// This is the slowest estimator here — O(trials · n · E[len]) per query with
// a fresh source walk per (candidate, trial) — but it is *unbiased* by
// construction, which makes it the library's second reference oracle next
// to the power method (useful where n² ground truth is unaffordable).
class PairwiseMonteCarlo : public SimRankAlgorithm {
 public:
  explicit PairwiseMonteCarlo(const SimRankOptions& options);

  std::string name() const override { return "PairwiseMC"; }
  [[nodiscard]] Status Bind(const Graph* g) override;

  int64_t TrialsFor(NodeId n) const;

 protected:
  // No checkpoint: a context never cuts the trial loop short.
  PartialResult SingleSourceImpl(NodeId u, QueryContext* ctx) override;
  // Samples walk pairs for `candidates` only.
  PartialResult PartialImpl(NodeId u, std::span<const NodeId> candidates,
                            QueryContext* ctx) override;

 private:
  SimRankOptions options_;
  double sqrt_c_ = 0.0;
  int max_walk_length_ = 64;
  Rng rng_;
};

}  // namespace crashsim

#endif  // CRASHSIM_SIMRANK_MONTE_CARLO_H_
