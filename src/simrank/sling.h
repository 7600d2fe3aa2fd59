#ifndef CRASHSIM_SIMRANK_SLING_H_
#define CRASHSIM_SIMRANK_SLING_H_

#include <string>
#include <vector>

#include "simrank/simrank.h"

namespace crashsim {

// SLING (Tian & Xiao, SIGMOD 2016) — the index-based static baseline.
//
// Uses the exact decomposition
//   s(u, v) = sum_{t >= 0} sum_w h_t(u, w) * h_t(v, w) * d(w)
// where h_t(x, w) = Pr[a sqrt(c)-walk from x occupies w at step t] and d(w)
// is the diagonal correction Pr[two sqrt(c)-walks from w never meet again].
//
// Index (built in Bind, so Bind cost is the paper's "indexing time"):
//  * d(w) for every node, estimated by Monte-Carlo paired walks;
//  * reverse hitting lists: for every node w and step t, the nodes v with
//    h_t(v, w) above a threshold, found by deterministic local push along
//    out-edges.
// Query: a forward local push from u produces h_t(u, .); every (t, w) entry
// is joined against w's reverse list. SLING must rebuild this index from
// scratch when the graph changes — the inefficiency the paper highlights
// for temporal workloads.
class Sling : public SimRankAlgorithm {
 public:
  struct IndexStats {
    int64_t reverse_entries = 0;  // total (w, t, v) triples stored
    double build_seconds = 0.0;
  };

  explicit Sling(const SimRankOptions& options);

  std::string name() const override { return "SLING"; }
  [[nodiscard]] Status Bind(const Graph* g) override;

  const IndexStats& index_stats() const { return stats_; }

  // Push/probe mass below this threshold is dropped. Defaults to
  // epsilon / 8: the three approximation sources (forward push, reverse
  // lists, MC d) then stay comfortably inside the epsilon budget.
  void set_prune_threshold(double t) { prune_threshold_ = t; }
  // Paired-walk samples per node for d(w).
  void set_diag_samples(int s) { diag_samples_ = s; }

 protected:
  // One forward push and index join; no checkpoint, so a context never cuts
  // it short (the trial counters stay 0: SLING samples nothing per query).
  PartialResult SingleSourceImpl(NodeId u, QueryContext* ctx) override;

 private:
  // One level-synchronised push step along out-edges (reverse hitting).
  void BuildReverseLists();

  SimRankOptions options_;
  double sqrt_c_ = 0.0;
  double prune_threshold_ = 0.0;
  int diag_samples_ = 100;
  int max_depth_ = 0;  // derived: (sqrt c)^t < threshold beyond this

  std::vector<double> diag_;  // d(w)
  // reverse_[w] = levels; level t = flat (v, h_t(v, w)) pairs.
  struct LevelEntry {
    NodeId v;
    float h;
  };
  std::vector<std::vector<std::vector<LevelEntry>>> reverse_;
  IndexStats stats_;
};

}  // namespace crashsim

#endif  // CRASHSIM_SIMRANK_SLING_H_
