#ifndef CRASHSIM_SIMRANK_POWER_METHOD_H_
#define CRASHSIM_SIMRANK_POWER_METHOD_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "simrank/simrank.h"

namespace crashsim {

// Dense all-pairs SimRank matrix (float storage, symmetric by construction).
// Produced by PowerMethodAllPairs; used as the ground truth for the Max
// Error and precision metrics (the paper computes ground truth "by the Power
// Method with 55 iterations").
class SimRankMatrix {
 public:
  SimRankMatrix() = default;
  explicit SimRankMatrix(NodeId n)
      : n_(n), data_(static_cast<size_t>(n) * static_cast<size_t>(n), 0.0f) {}

  NodeId num_nodes() const { return n_; }

  double At(NodeId u, NodeId v) const {
    return data_[static_cast<size_t>(u) * static_cast<size_t>(n_) +
                 static_cast<size_t>(v)];
  }
  void Set(NodeId u, NodeId v, double s) {
    data_[static_cast<size_t>(u) * static_cast<size_t>(n_) +
          static_cast<size_t>(v)] = static_cast<float>(s);
  }

  // Copies row u (the exact single-source scores s(u, .)).
  std::vector<double> Row(NodeId u) const;

  float* RowPtr(NodeId u) {
    return data_.data() + static_cast<size_t>(u) * static_cast<size_t>(n_);
  }
  const float* RowPtr(NodeId u) const {
    return data_.data() + static_cast<size_t>(u) * static_cast<size_t>(n_);
  }

 private:
  NodeId n_ = 0;
  std::vector<float> data_;
};

// The largest graph the all-pairs power method accepts: its three n x n
// float matrices take about 4.8 GB at this size. PowerMethod::Bind answers
// a larger graph with kInvalidArgument; PowerMethodAllPairs CHECK-fails
// above it, since its callers pass graphs they built themselves.
inline constexpr NodeId kPowerMethodMaxNodes = 20000;

// Exact (to iteration depth) SimRank by the Jeh & Widom power method:
//   S_{k+1}(u,v) = c / (|I(u)||I(v)|) * sum_{x in I(u), y in I(v)} S_k(x,y)
// with S(v,v) = 1 and S_0 = I. Implemented as two sparse-dense products per
// iteration (cost 2*n*m) with row-parallelism. Requires
// g.num_nodes() <= kPowerMethodMaxNodes.
SimRankMatrix PowerMethodAllPairs(const Graph& g, double c, int iterations);

// The power method as a SimRankAlgorithm: the ground truth every estimator
// is measured against (55 iterations in the paper). Bind computes the
// all-pairs matrix, so a single-source query is a row copy; callers that
// read many rows use matrix() directly. No checkpoint: ctx is ignored.
// Bind rejects c outside (0, 1) and graphs over kPowerMethodMaxNodes nodes
// with kInvalidArgument, before allocating anything.
class PowerMethod : public SimRankAlgorithm {
 public:
  explicit PowerMethod(double c = 0.6, int iterations = 55)
      : c_(c), iterations_(iterations) {}

  std::string name() const override { return "PowerMethod"; }
  [[nodiscard]] Status Bind(const Graph* g) override;

  const SimRankMatrix& matrix() const { return matrix_; }

 protected:
  PartialResult SingleSourceImpl(NodeId u, QueryContext* ctx) override;

 private:
  double c_;
  int iterations_;
  SimRankMatrix matrix_;
};

}  // namespace crashsim

#endif  // CRASHSIM_SIMRANK_POWER_METHOD_H_
