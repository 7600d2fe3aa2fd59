#include "simrank/walk.h"

#include <cmath>
#include <limits>

#include "simrank/alias_sampler.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace crashsim {

int SampleSqrtCWalk(const Graph& g, NodeId v, double sqrt_c, int max_len,
                    Rng* rng, std::vector<NodeId>* out) {
  out->clear();
  out->push_back(v);
  NodeId cur = v;
  while (static_cast<int>(out->size()) < max_len) {
    const auto in = g.InNeighbors(cur);
    if (in.empty()) break;          // dead end: forced stop
    if (!rng->Bernoulli(sqrt_c)) break;  // 1 - sqrt(c) stop probability
    cur = in[rng->NextBounded(in.size())];
    out->push_back(cur);
  }
  return static_cast<int>(out->size());
}

int CrashSimLMax(double c) {
  CRASHSIM_CHECK(c > 0.0 && c < 1.0);
  const double sqrt_c = std::sqrt(c);
  const double l = (1.0 + sqrt_c) / ((1.0 - sqrt_c) * (1.0 - sqrt_c));
  return static_cast<int>(std::ceil(l));
}

double CrashSimTruncationMass(double c, int l_max) {
  // Geometric series: sum_{k=1..l_max} (sqrt c)^{k-1}(1 - sqrt c)
  //                 = 1 - (sqrt c)^{l_max}.
  return 1.0 - std::pow(std::sqrt(c), l_max);
}

double CrashSimTruncationError(double c, int l_max) {
  return std::pow(std::sqrt(c), l_max);
}

int64_t CrashSimTrialCount(double c, double epsilon, double delta, NodeId n) {
  CRASHSIM_CHECK_GT(epsilon, 0.0);
  CRASHSIM_CHECK(delta > 0.0 && delta < 1.0);
  const int l_max = CrashSimLMax(c);
  const double p = CrashSimTruncationMass(c, l_max);
  const double eps_t = CrashSimTruncationError(c, l_max);
  const double denom = epsilon - p * eps_t;
  CRASHSIM_CHECK_GT(denom, 0.0) << "epsilon too small for truncation error";
  const double nr = 3.0 * c / (denom * denom) *
                    std::log(static_cast<double>(n) / delta);
  return static_cast<int64_t>(std::ceil(nr));
}

int64_t ProbeSimTrialCount(double c, double epsilon, double delta, NodeId n) {
  CRASHSIM_CHECK_GT(epsilon, 0.0);
  CRASHSIM_CHECK(delta > 0.0 && delta < 1.0);
  const double nr = 3.0 * c / (epsilon * epsilon) *
                    std::log(static_cast<double>(n) / delta);
  return static_cast<int64_t>(std::ceil(nr));
}

double CrashSimTruncationBound(double c, int l_max) {
  return CrashSimTruncationMass(c, l_max) * CrashSimTruncationError(c, l_max);
}

double CrashSimAchievedEpsilon(double c, double delta, NodeId n, int l_max,
                               int64_t n_done) {
  if (n_done <= 0) return std::numeric_limits<double>::infinity();
  const double mc_term =
      std::sqrt(3.0 * c * std::log(static_cast<double>(n) / delta) /
                static_cast<double>(n_done));
  return mc_term + CrashSimTruncationBound(c, l_max);
}

std::vector<double> EstimateDiagonalCorrections(const Graph& g, double c,
                                                int samples, int max_len,
                                                uint64_t seed,
                                                int max_threads) {
  CRASHSIM_CHECK_GE(samples, 1);
  // Outcome i is a pair's common budget of i steps (ALGORITHMS.md).
  const DiscreteSampler budget(TruncatedGeometricWeights(c, max_len),
                               DiscreteSampler::Backend::kAuto);
  const uint64_t salt = ChainSeed(seed, kDiagonalDomain);
  std::vector<double> d(static_cast<size_t>(g.num_nodes()), 1.0);
  // One walk pair: its stream, both walks' nodes, and its steps left.
  struct Pair {
    uint64_t rng;
    NodeId a;
    NodeId b;
    uint32_t left;
  };
  const auto estimate = [&](int64_t begin, int64_t end) {
    std::vector<Pair> pairs(static_cast<size_t>(samples));
    for (NodeId w = static_cast<NodeId>(begin); w < end; ++w) {
      if (g.InDegree(w) == 0) continue;  // walks stop immediately: d(w) = 1
      const uint64_t node_seed = ChainSeed(salt, static_cast<uint64_t>(w));
      // Step-major sweep, like WalkBatchEngine's: slots [0, live) hold the
      // pairs that take the next step, compacted without a branch. A pair
      // leaves at its first meeting, at a dead end on either side or when
      // its budget is spent; the draws it makes past that are unused.
      size_t live = 0;
      for (int s = 0; s < samples; ++s) {
        Pair& p = pairs[live];
        p = {ChainSeed(node_seed, static_cast<uint64_t>(s)), w, w, 0};
        p.left = budget.Sample(SplitMix64Next(p.rng));
        live += p.left > 0 ? 1 : 0;
      }
      int met = 0;
      while (live > 0) {
        size_t kept = 0;
        for (size_t i = 0; i < live; ++i) {
          Pair p = pairs[i];
          const auto in_a = g.InNeighbors(p.a);
          const auto in_b = g.InNeighbors(p.b);
          const bool step = !in_a.empty() && !in_b.empty();
          const uint32_t ia = DiscreteSampler::UniformIndex(
              SplitMix64Next(p.rng), in_a.size());
          const uint32_t ib = DiscreteSampler::UniformIndex(
              SplitMix64Next(p.rng), in_b.size());
          p.a = *(step ? in_a.data() + ia : &p.a);
          p.b = *(step ? in_b.data() + ib : &p.b);
          const bool meet = step && p.a == p.b;
          met += meet ? 1 : 0;
          --p.left;
          pairs[kept] = p;
          kept += step && !meet && p.left > 0 ? 1 : 0;
        }
        live = kept;
      }
      d[static_cast<size_t>(w)] = static_cast<double>(samples - met) /
                                  static_cast<double>(samples);
    }
  };
  ParallelFor(g.num_nodes(), estimate, /*min_chunk=*/128, max_threads);
  return d;
}

}  // namespace crashsim
