#ifndef CRASHSIM_CORE_SNAPSHOT_DIAGONALS_H_
#define CRASHSIM_CORE_SNAPSHOT_DIAGONALS_H_

#include <vector>

#include "core/crashsim.h"
#include "graph/graph.h"
#include "graph/temporal_graph.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace crashsim {

// Per-snapshot table of corrected-mode diagonals d(w) for one temporal
// graph under one engine configuration. d(w) is a property of the snapshot
// graph — CrashSim::EstimateDiagonal is a pure function of (graph, c,
// diag_samples, l_max, seed) — so every CrashSim-T query that reaches
// snapshot t can share one estimate instead of redoing it, the way SLING
// computes d once at index time.
//
// Slots fill lazily on first use, never up front, and single-flight:
// concurrent first requests for snapshot t run one estimate and the others
// wait for it. Each estimate also counts on the process counter
// temporal.diag_estimates. Memory once every snapshot has been reached:
// num_snapshots × n × 8 bytes.
//
// Thread safety: Get may be called from any number of threads.
class SnapshotDiagonals {
 public:
  // `tg` is borrowed and must outlive the table.
  SnapshotDiagonals(const TemporalGraph* tg, const CrashSimOptions& options);

  SnapshotDiagonals(const SnapshotDiagonals&) = delete;
  SnapshotDiagonals& operator=(const SnapshotDiagonals&) = delete;

  const TemporalGraph* graph() const { return tg_; }

  // Whether an engine with `options` estimates the same diagonals as this
  // table (same mode, c, diag_samples, l_max and seed).
  bool Matches(const CrashSimOptions& options) const;

  // d(w) of snapshot t, estimating it on first use; nullptr in paper mode.
  // `g` must be snapshot t of graph(). An estimate that throws
  // (std::bad_alloc, or the StatusException / bad_alloc injected at the
  // "snapshot_diagonals.fill" failpoint) propagates and leaves the slot
  // empty, so the next Get for t estimates again.
  SharedDiagonal Get(int t, const Graph& g);

 private:
  struct Slot {
    Mutex mu;
    SharedDiagonal diag CRASHSIM_GUARDED_BY(mu);
  };

  const TemporalGraph* const tg_;
  const CrashSim estimator_;  // never bound; only EstimateDiagonal is used
  std::vector<Slot> slots_;   // one per snapshot of tg_
};

}  // namespace crashsim

#endif  // CRASHSIM_CORE_SNAPSHOT_DIAGONALS_H_
