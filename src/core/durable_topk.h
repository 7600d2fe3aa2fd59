#ifndef CRASHSIM_CORE_DURABLE_TOPK_H_
#define CRASHSIM_CORE_DURABLE_TOPK_H_

#include <utility>
#include <vector>

#include "core/baseline_temporal.h"
#include "core/crashsim.h"
#include "graph/temporal_graph.h"

namespace crashsim {

// Durable Top-k SimRank Query — an extension beyond the paper's Definitions
// 4-5, in the spirit of the durable graph-pattern queries it cites
// (Semertzidis & Pitoura [15]): find the k nodes with the highest *minimum*
// SimRank to the source across the whole query interval, i.e. the nodes
// most durably similar rather than similar at one instant. Subsumes the
// threshold query (its answer is every node whose durable score exceeds
// theta) while producing a ranking instead of a set.
struct DurableTopKQuery {
  NodeId source = 0;
  int begin_snapshot = 0;
  int end_snapshot = 0;
  int k = 10;
  // Candidates whose running minimum falls below this floor are discarded
  // early (0 keeps everything; a positive floor prunes like the threshold
  // query and is sound whenever the caller only cares about durable scores
  // above it).
  double floor = 0.0;
};

// Validates the interval and source (ValidateQueryInterval), k >= 1 and
// floor >= 0: kInvalidArgument naming the bad field. Answer CHECK-fails on
// a query this rejects.
[[nodiscard]] Status ValidateDurableTopKQuery(const TemporalGraph& tg,
                                              const DurableTopKQuery& query);

struct DurableTopKAnswer {
  // (durable score = min over snapshots, node), descending.
  std::vector<std::pair<double, NodeId>> result;
  TemporalAnswerStats stats;
};

// Answers the query with per-snapshot CrashSim partial evaluation: every
// surviving candidate is scored per snapshot and its running minimum
// maintained; the floor shrinks the candidate set the same way the
// threshold query does (the paper's opportunity (ii)).
class CrashSimDurableTopK {
 public:
  explicit CrashSimDurableTopK(const CrashSimOptions& options);

  DurableTopKAnswer Answer(const TemporalGraph& tg,
                           const DurableTopKQuery& query);

 private:
  CrashSim crashsim_;
};

}  // namespace crashsim

#endif  // CRASHSIM_CORE_DURABLE_TOPK_H_
