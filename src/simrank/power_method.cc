#include "simrank/power_method.h"

#include <vector>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace crashsim {

std::vector<double> SimRankMatrix::Row(NodeId u) const {
  const float* row = RowPtr(u);
  return std::vector<double>(row, row + n_);
}

SimRankMatrix PowerMethodAllPairs(const Graph& g, double c, int iterations) {
  const NodeId n = g.num_nodes();
  CRASHSIM_CHECK_LE(n, kPowerMethodMaxNodes)
      << "all-pairs power method needs 3*n^2 floats; scale the graph down";
  CRASHSIM_CHECK(c > 0.0 && c < 1.0);

  SimRankMatrix s(n);
  for (NodeId v = 0; v < n; ++v) s.Set(v, v, 1.0);
  if (n == 0 || iterations <= 0) return s;

  SimRankMatrix t(n);     // T = Q * S   (row u = mean of rows I(u))
  SimRankMatrix next(n);  // S' = c * T * Q^T, diagonal reset to 1

  for (int iter = 0; iter < iterations; ++iter) {
    // T[u][*] = (1/|I(u)|) * sum_{x in I(u)} S[x][*]
    ParallelFor(n, [&](int64_t begin, int64_t end) {
      std::vector<double> acc(static_cast<size_t>(n));
      for (int64_t u = begin; u < end; ++u) {
        const auto in = g.InNeighbors(static_cast<NodeId>(u));
        float* trow = t.RowPtr(static_cast<NodeId>(u));
        if (in.empty()) {
          for (NodeId v = 0; v < n; ++v) trow[v] = 0.0f;
          continue;
        }
        std::fill(acc.begin(), acc.end(), 0.0);
        for (NodeId x : in) {
          const float* srow = s.RowPtr(x);
          for (NodeId v = 0; v < n; ++v) acc[static_cast<size_t>(v)] += srow[v];
        }
        const double inv = 1.0 / static_cast<double>(in.size());
        for (NodeId v = 0; v < n; ++v) {
          trow[v] = static_cast<float>(acc[static_cast<size_t>(v)] * inv);
        }
      }
    });
    // next[u][v] = c / |I(v)| * sum_{y in I(v)} T[u][y]; diag = 1.
    ParallelFor(n, [&](int64_t begin, int64_t end) {
      for (int64_t u = begin; u < end; ++u) {
        const float* trow = t.RowPtr(static_cast<NodeId>(u));
        float* nrow = next.RowPtr(static_cast<NodeId>(u));
        for (NodeId v = 0; v < n; ++v) {
          const auto in = g.InNeighbors(v);
          if (in.empty() || v == u) {
            nrow[v] = (v == u) ? 1.0f : 0.0f;
            continue;
          }
          double acc = 0.0;
          for (NodeId y : in) acc += trow[y];
          nrow[v] = static_cast<float>(c * acc / static_cast<double>(in.size()));
        }
      }
    });
    std::swap(s, next);
  }
  return s;
}

Status PowerMethod::Bind(const Graph* g) {
  if (!(c_ > 0.0 && c_ < 1.0)) {
    return InvalidArgumentError(
        StrFormat("decay factor c must be in (0, 1), got %g", c_));
  }
  if (g->num_nodes() > kPowerMethodMaxNodes) {
    return InvalidArgumentError(StrFormat(
        "the power method supports at most kPowerMethodMaxNodes = %d nodes "
        "(the graph has %d)",
        kPowerMethodMaxNodes, g->num_nodes()));
  }
  set_graph(g);
  matrix_ = SimRankMatrix();  // free the old matrix before the 2*n^2 scratch
  matrix_ = PowerMethodAllPairs(*g, c_, iterations_);
  return OkStatus();
}

PartialResult PowerMethod::SingleSourceImpl(NodeId u, QueryContext* /*ctx*/) {
  PartialResult result;
  result.status = ValidateNodeId(u, matrix_.num_nodes(), "source");
  if (result.status.ok()) result.scores = matrix_.Row(u);
  return result;
}

}  // namespace crashsim
