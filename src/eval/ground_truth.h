#ifndef CRASHSIM_EVAL_GROUND_TRUTH_H_
#define CRASHSIM_EVAL_GROUND_TRUTH_H_

#include <string>
#include <vector>

#include "core/baseline_temporal.h"
#include "core/temporal_query.h"
#include "graph/graph.h"
#include "graph/temporal_graph.h"
#include "simrank/power_method.h"

namespace crashsim {

// Ground truth oracle: the Jeh & Widom power method with the paper's 55
// iterations. Binding computes (and caches) the all-pairs matrix, so each
// subsequent single-source query is a row copy.
class GroundTruth {
 public:
  explicit GroundTruth(double c = 0.6, int iterations = 55)
      : c_(c), iterations_(iterations) {}

  void Bind(const Graph* g) {
    matrix_ = PowerMethodAllPairs(*g, c_, iterations_);
  }

  // Row u of the matrix is the exact single-source answer for u.
  const SimRankMatrix& matrix() const { return matrix_; }

  double c() const { return c_; }
  int iterations() const { return iterations_; }

 private:
  double c_;
  int iterations_;
  SimRankMatrix matrix_;
};

// Exact temporal engine: answers a temporal query with power-method scores
// at every snapshot. This is the reference v(k1) of the precision metric.
// O(T * iterations * n * m) — keep datasets scaled when using it.
class ExactTemporalEngine : public TemporalEngine {
 public:
  explicit ExactTemporalEngine(double c = 0.6, int iterations = 55)
      : c_(c), iterations_(iterations) {}

  std::string name() const override { return "PowerMethod-T"; }

 protected:
  // No checkpoint: the power method runs every snapshot to completion.
  TemporalAnswer AnswerImpl(const TemporalGraph& tg,
                            const TemporalQuery& query,
                            QueryContext* ctx) override;

 private:
  double c_;
  int iterations_;
};

}  // namespace crashsim

#endif  // CRASHSIM_EVAL_GROUND_TRUTH_H_
