#ifndef CRASHSIM_SIMRANK_ALIAS_SAMPLER_H_
#define CRASHSIM_SIMRANK_ALIAS_SAMPLER_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace crashsim {

// Discrete distribution sampler over {0, ..., n-1} mapping ONE uniform
// 64-bit draw to an outcome, with two interchangeable backends:
//
//   kCdf    O(log n) binary search over 64-bit fixed-point cumulative
//           thresholds. Cheap to build (one pass), no per-outcome tables.
//   kAlias  O(1) Walker/Vose alias table: bucket = high bits of draw * n,
//           accept/alias decision on the low bits. Costs 12 bytes/outcome.
//
// Both backends are exact on the same u64 fixed-point grid: the kCdf
// thresholds quantise the target distribution to integer multiples of 2^-64
// (largest-remainder rounding, so the quantised masses sum to exactly 1),
// and a sampled index i has probability slots[i] / 2^64 precisely. The
// alias backend reproduces that quantised distribution up to an additional
// |error| < n / 2^64 per outcome (the low bits of draw * n are uniform only
// up to the bucket count).
//
// Draw-mapping contract (load-bearing for the batch walk engine's
// bit-identity guarantee, see DESIGN.md):
//   * UNIFORM weights degenerate, for BOTH backends, to exactly
//     UniformIndex(draw, n) = (draw * n) >> 64 — the direct fixed-point
//     map. tests/simrank/alias_sampler_test.cc checks this exhaustively at
//     every threshold boundary. A walk engine may therefore mix the direct
//     map (for uniform in-neighbour steps) with either backend freely
//     without changing any sampled sequence.
//   * NON-uniform weights: the two backends sample the same distribution
//     but INTENTIONALLY DIVERGENT sequences — kCdf partitions the draw
//     space into contiguous intervals, kAlias into bucket-strided slivers.
//     The backend is therefore part of a stream's contract: pick one per
//     use site (Backend::kAuto pins the choice to the support size, which
//     is deterministic in the query options) and never switch it without
//     bumping the seed contract.
//
// Instances are immutable after construction and safe to share across
// threads. Construction is deterministic in (weights, backend).
class DiscreteSampler {
 public:
  enum class Backend {
    kCdf,
    kAlias,
    // kCdf below kAliasSupportThreshold outcomes, kAlias at or above: a
    // binary search over a handful of thresholds beats the alias table's
    // extra cache line, and the crossover depends only on n.
    kAuto,
  };
  static constexpr size_t kAliasSupportThreshold = 32;

  // weights: non-negative, at least one strictly positive, finite.
  // CHECK-fails otherwise (samplers are built from trusted option-derived
  // distributions, not user input).
  DiscreteSampler(std::span<const double> weights, Backend backend);

  // Maps one uniform u64 draw to an outcome in [0, size()).
  uint32_t Sample(uint64_t draw) const {
    return backend_ == Backend::kAlias ? SampleAlias(draw) : SampleCdf(draw);
  }

  // The resolved backend (kAuto is resolved at construction).
  Backend backend() const { return backend_; }
  size_t size() const { return n_; }

  // The direct fixed-point map both backends degenerate to under uniform
  // weights; also the batch walk engine's uniform in-neighbour step.
  static uint32_t UniformIndex(uint64_t draw, uint64_t n) {
    return static_cast<uint32_t>(MapToRange(draw, n));
  }

 private:
  // Both sampling kernels live in the header so per-draw call sites (one
  // call per walk when the batch engine starts a tile) inline to a handful
  // of instructions instead of paying an opaque cross-TU call.
  uint32_t SampleCdf(uint64_t draw) const {
    return static_cast<uint32_t>(
        std::upper_bound(threshold_.begin(), threshold_.end(), draw) -
        threshold_.begin());
  }
  uint32_t SampleAlias(uint64_t draw) const {
    const __uint128_t m = static_cast<__uint128_t>(draw) * n_;
    const uint32_t j = static_cast<uint32_t>(m >> 64);
    const uint64_t frac = static_cast<uint64_t>(m);
    // Accept/alias is data-random, so the select is a mask: a branch would
    // mispredict on every split bucket.
    const uint32_t accept = 0u - static_cast<uint32_t>(frac < cutoff_[j]);
    return (j & accept) | (alias_[j] & ~accept);
  }

  size_t n_ = 0;
  Backend backend_ = Backend::kCdf;
  // kCdf: threshold_[i] = (sum of quantised masses 0..i) as a u64 fixed
  // point; the final (== 2^64) threshold is implicit. Sample returns the
  // first i with draw < threshold_[i].
  std::vector<uint64_t> threshold_;
  // kAlias: bucket j accepts j when the low 64 bits of draw * n are below
  // cutoff_[j], otherwise returns alias_[j]. Full buckets use cutoff =
  // UINT64_MAX with alias_[j] = j so either branch yields j.
  std::vector<uint64_t> cutoff_;
  std::vector<uint32_t> alias_;
};

// Weights of the truncated sqrt(c)-walk length distribution on node counts
// {1, ..., max_len} (index i = length i + 1): a sqrt(c)-walk keeps walking
// with probability continue_p per step and is truncated at max_len nodes,
// so P(len = l) = p^(l-1) (1-p) for l < max_len and the whole tail mass
// p^(max_len-1) collapses onto l = max_len. Sampling the length up front
// from this distribution is draw-for-draw cheaper than per-step Bernoulli
// trials and replaces the log/log1p inverse-CDF evaluation of
// Rng::GeometricLength with one table lookup.
std::vector<double> TruncatedGeometricWeights(double continue_p, int max_len);

}  // namespace crashsim

#endif  // CRASHSIM_SIMRANK_ALIAS_SAMPLER_H_
