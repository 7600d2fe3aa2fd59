#ifndef CRASHSIM_UTIL_STATS_H_
#define CRASHSIM_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace crashsim {

// Streaming mean/min/max accumulator. O(1) memory; numerically stable
// (incremental mean) for the long accumulation loops of the benchmark
// harness.
class OnlineStats {
 public:
  // Adds one observation.
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Nearest-rank percentile of a *sorted* vector: the ceil(q * n)-th order
// statistic (1-based), i.e. the smallest observed value v such that at least
// q * n observations are <= v. It never interpolates: it always returns a
// member of the sample, which is what latency reporting wants (p50 of 100
// samples is sorted[49], not a blend).
// q <= 0 returns the minimum, q >= 1 the maximum, an empty sample 0.
double PercentileNearestRank(const std::vector<double>& sorted, double q);

}  // namespace crashsim

#endif  // CRASHSIM_UTIL_STATS_H_
