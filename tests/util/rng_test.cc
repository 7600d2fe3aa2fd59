#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace crashsim {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(5);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(bound), bound);
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(13);
  const uint64_t kBound = 10;
  std::vector<int> counts(kBound, 0);
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[rng.NextBounded(kBound)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kN, 0.1, 0.01);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(17);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(19);
  for (double p : {0.1, 0.5, 0.9}) {
    int hits = 0;
    const int kN = 100000;
    for (int i = 0; i < kN; ++i) hits += rng.Bernoulli(p);
    EXPECT_NEAR(static_cast<double>(hits) / kN, p, 0.01);
  }
}

TEST(RngTest, BernoulliDegenerateCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, GeometricLengthMatchesMean) {
  // E[L] = 1 / (1 - p) for continue-probability p.
  Rng rng(29);
  const double p = std::sqrt(0.6);
  double sum = 0.0;
  const int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.GeometricLength(p);
  EXPECT_NEAR(sum / kN, 1.0 / (1.0 - p), 0.05);
}

TEST(RngTest, GeometricLengthAtLeastOne) {
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.GeometricLength(0.9), 1);
  EXPECT_EQ(rng.GeometricLength(0.0), 1);
}

TEST(RngTest, GeometricLengthTailProbability) {
  // P(L > k) = p^k; check k = 5 at p = 0.5 -> 1/32.
  Rng rng(37);
  int longer = 0;
  const int kN = 200000;
  for (int i = 0; i < kN; ++i) longer += (rng.GeometricLength(0.5) > 5);
  EXPECT_NEAR(static_cast<double>(longer) / kN, 1.0 / 32.0, 0.005);
}

TEST(StreamDerivationTest, Mix64IsBijectiveOnSamples) {
  // Mix64 is a bijection of u64 (invertible multiply/xorshift rounds), so
  // distinct inputs must give distinct outputs; sample densely around the
  // pitfalls (0 maps to 0; adjacent and power-of-two inputs).
  std::vector<uint64_t> outs;
  for (uint64_t x = 0; x < 4096; ++x) outs.push_back(Mix64(x));
  for (int s = 12; s < 64; ++s) outs.push_back(Mix64(uint64_t{1} << s));
  std::sort(outs.begin(), outs.end());
  EXPECT_EQ(std::adjacent_find(outs.begin(), outs.end()), outs.end());
  EXPECT_EQ(Mix64(0), 0u);  // known fixed point — why ChainSeed offsets by 1
}

TEST(StreamDerivationTest, ChainSeedZeroArgumentsAreNotFixedPoints) {
  // The regression the derivation contract exists to prevent: a plain
  // XOR/add chain maps (0, 0) to a degenerate seed shared by many streams.
  EXPECT_NE(ChainSeed(0, 0), 0u);
  EXPECT_NE(ChainSeed(ChainSeed(0, 0), 0), ChainSeed(0, 0));
  EXPECT_NE(PerWalkSeed(0, 0, 0), 0u);
}

TEST(StreamDerivationTest, ChainSeedIsInjectivePerArgument) {
  // For a fixed salt, word -> ChainSeed(salt, word) is injective (Mix64 of
  // an affine map with odd slope); check a contiguous block plus the
  // extremes for several salts.
  for (const uint64_t salt : {0ull, 42ull, 0xdeadbeefull}) {
    std::vector<uint64_t> outs;
    for (uint64_t w = 0; w < 8192; ++w) outs.push_back(ChainSeed(salt, w));
    outs.push_back(ChainSeed(salt, UINT64_MAX));
    outs.push_back(ChainSeed(salt, UINT64_MAX - 1));
    std::sort(outs.begin(), outs.end());
    EXPECT_EQ(std::adjacent_find(outs.begin(), outs.end()), outs.end());
  }
}

TEST(StreamDerivationTest, PerWalkSeedsDistinctAcrossCandidateTrialGrid) {
  // The latent-collision regression test: the old XOR-linear derivation
  // (seed ^ candidate * K1 ^ trial * K2) made swapped (candidate, trial)
  // pairs and aligned diagonals collide across queries. The chained-Mix64
  // derivation behaves like a random function of the pair: over a 512 x 512
  // grid (2^18 seeds) the birthday bound puts the collision probability
  // near 2^36 / 2^65 ~ 2^-29, so ANY duplicate is a derivation bug, not
  // bad luck.
  constexpr uint64_t kGrid = 512;
  std::vector<uint64_t> seeds;
  seeds.reserve(kGrid * kGrid);
  const uint64_t salt = ChainSeed(42, 7);  // a realistic query salt
  for (uint64_t cand = 0; cand < kGrid; ++cand) {
    for (uint64_t trial = 0; trial < kGrid; ++trial) {
      seeds.push_back(PerWalkSeed(salt, cand, trial));
    }
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(StreamDerivationTest, SwappedPairsAndAdjacentSaltsDoNotCollide) {
  // Directly pin the shapes the old derivation confused: (a, b) vs (b, a),
  // and the same pair under adjacent salts (two queries with consecutive
  // sources).
  const uint64_t s0 = ChainSeed(1, 10);
  const uint64_t s1 = ChainSeed(1, 11);
  for (uint64_t a = 0; a < 64; ++a) {
    for (uint64_t b = 0; b < 64; ++b) {
      if (a != b) {
        EXPECT_NE(PerWalkSeed(s0, a, b), PerWalkSeed(s0, b, a))
            << "a=" << a << " b=" << b;
      }
      EXPECT_NE(PerWalkSeed(s0, a, b), PerWalkSeed(s1, a, b))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(StreamDerivationTest, FirstDrawsOfNeighbouringStreamsDiffer) {
  // Streams must be decorrelated from draw one — walk engines read only a
  // handful of draws per stream, so divergence cannot wait a warm-up.
  const uint64_t salt = ChainSeed(99, 3);
  std::vector<uint64_t> first;
  for (uint64_t cand = 0; cand < 128; ++cand) {
    for (uint64_t trial = 0; trial < 16; ++trial) {
      uint64_t state = PerWalkSeed(salt, cand, trial);
      first.push_back(SplitMix64Next(state));
    }
  }
  std::sort(first.begin(), first.end());
  EXPECT_EQ(std::adjacent_find(first.begin(), first.end()), first.end());
}

TEST(StreamDerivationTest, SplitMix64NextMatchesClassSequence) {
  // The free function is the single source of truth for SplitMix64; the
  // class wraps it, so both must emit the same sequence from the same seed.
  uint64_t state = 123;
  SplitMix64 cls(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(SplitMix64Next(state), cls.Next());
}

TEST(StreamDerivationTest, MapToRangeIsExactOnBoundaries) {
  // MapToRange(draw, n) = floor(draw * n / 2^64): draw 0 -> 0, the top draw
  // -> n - 1, and each outcome's preimage size differs by at most one (the
  // fixed-point uniformity the samplers build on).
  for (const uint64_t n : {1ull, 2ull, 3ull, 7ull, 1000ull}) {
    EXPECT_EQ(MapToRange(0, n), 0u);
    EXPECT_EQ(MapToRange(UINT64_MAX, n), n - 1);
    std::vector<int64_t> counts(n, 0);
    uint64_t state = 7 * n;
    for (int i = 0; i < 20000; ++i) ++counts[MapToRange(SplitMix64Next(state), n)];
    const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    if (n > 1) {
      EXPECT_GT(*lo, 0) << "n=" << n;
      EXPECT_LT(static_cast<double>(*hi - *lo),
                6.0 * std::sqrt(20000.0 / static_cast<double>(n)) + 10.0)
          << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace crashsim
