#ifndef CRASHSIM_CORE_CRASHSIM_T_H_
#define CRASHSIM_CORE_CRASHSIM_T_H_

#include <string>
#include <vector>

#include "core/baseline_temporal.h"
#include "core/crashsim.h"
#include "core/snapshot_diagonals.h"
#include "core/temporal_query.h"
#include "graph/temporal_graph.h"

namespace crashsim {

// CrashSim-T configuration (Algorithm 3).
struct CrashSimTOptions {
  CrashSimOptions crashsim;
  // Delta pruning (Property 1): when the source tree is stable and
  // |E(Delta)| < |Omega| * n_r / |E(Omega)|, candidates outside the affected
  // area of the changed edges keep their previous score.
  bool enable_delta_pruning = true;
  // Difference pruning (Property 2): when the source tree is stable and
  // |E(Omega)| < n_r, candidates whose own reverse-reachable tree is
  // unchanged between the adjacent snapshots keep their previous score.
  bool enable_difference_pruning = true;
  // Difference pruning pre-filter: a candidate v's tree can only change if
  // some changed edge's head y out-reaches v within l_max, so candidates
  // outside that region skip the tree rebuild entirely. Sound (never prunes
  // a candidate the literal tree comparison would keep recomputing) and
  // verified against the literal path in tests; disable to run Algorithm 3's
  // comparison verbatim.
  bool difference_reachability_prefilter = true;
  // Source-tree reuse: Algorithm 3 rebuilds the source tree every snapshot
  // just to compare it with the previous one (lines 5-6). The tree can only
  // change if some changed edge's head reaches the source within l_max, so
  // an O(m) reverse reachability test replaces the O(l_max * m) rebuild on
  // stable snapshots. Sound — the reachability test is conservative — and
  // verified equivalent to the literal path in tests.
  bool reuse_source_tree = true;
};

// CrashSim-T (Section IV): answers temporal SimRank trend/threshold queries
// by running CrashSim per snapshot on the *surviving* candidate set only,
// skipping candidates proven unaffected by the snapshot delta via the two
// pruning rules. Scores of pruned candidates are carried over from the
// previous snapshot — the rules only fire when the score provably cannot
// have changed, so no additional error is introduced (Section IV-C).
//
// Corrected mode estimates d(w) per snapshot. With a SnapshotDiagonals
// table (borrowed, must outlive the engine, built for the queried graph
// with matching options) Answer takes each snapshot's d(w) from it, so
// queries share one estimate per snapshot; without one it estimates per
// Bind. The answers are bit-identical either way.
class CrashSimT : public TemporalEngine {
 public:
  explicit CrashSimT(const CrashSimTOptions& options,
                     SnapshotDiagonals* diagonals = nullptr);

  std::string name() const override { return "CrashSim-T"; }

  const CrashSimTOptions& options() const { return options_; }

 protected:
  // The context is checked before every snapshot advance and threaded into
  // the per-snapshot tree builds and CrashSim evaluation; on deadline/cancel
  // the answer carries the candidate set after the last fully processed
  // snapshot plus a non-OK status — partially evaluated snapshots are never
  // observed, so the prefix answer is exactly what an unbounded run over
  // the shorter interval would have produced.
  TemporalAnswer AnswerImpl(const TemporalGraph& tg,
                            const TemporalQuery& query,
                            QueryContext* ctx) override;

 private:
  // Binds crashsim_ to snapshot t (`g`), taking d(w) from diagonals_ when
  // set. Bad options come back as kInvalidArgument, a failed estimate as
  // SnapshotDiagonals::Get's status.
  [[nodiscard]] Status BindSnapshot(const TemporalGraph& tg, int t,
                                    const Graph& g);

  // Number of directed edges with both endpoints in the candidate set
  // (|E(Omega)| of Properties 1-2).
  static int64_t CandidateEdgeCount(const Graph& g,
                                    const std::vector<NodeId>& candidates);

  CrashSimTOptions options_;
  CrashSim crashsim_;
  SnapshotDiagonals* const diagonals_;  // nullable
};

}  // namespace crashsim

#endif  // CRASHSIM_CORE_CRASHSIM_T_H_
