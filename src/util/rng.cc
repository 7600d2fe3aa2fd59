#include "util/rng.h"

#include <cmath>

namespace crashsim {

uint64_t SplitMix64::Next() { return SplitMix64Next(state_); }

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& lane : s_) lane = sm.Next();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

int Rng::GeometricLength(double p) {
  // Number of consecutive successes + 1; equivalently inverse-CDF sampling
  // of Geometric(1-p) on {1, 2, ...}. Inverse CDF avoids per-step draws.
  if (p <= 0.0) return 1;
  if (p >= 1.0) return std::numeric_limits<int>::max();
  const double u = NextDouble();
  // P(L > k) = p^k; L = 1 + floor(log(1-u)/log(p)).
  const int len = 1 + static_cast<int>(std::log1p(-u) / std::log(p));
  return len < 1 ? 1 : len;
}

}  // namespace crashsim
