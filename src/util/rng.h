#ifndef CRASHSIM_UTIL_RNG_H_
#define CRASHSIM_UTIL_RNG_H_

#include <bit>
#include <cstdint>
#include <limits>

namespace crashsim {

// SplitMix64's output finalizer: a bijective 64-bit mixer (every bit of the
// input affects every bit of the output). Note Mix64(0) == 0 — never feed it
// raw un-offset values where 0 is a reachable input; ChainSeed below adds a
// Weyl increment first precisely to avoid that fixed point.
inline uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// One SplitMix64 step over caller-owned raw state. The batched walk engine
// keeps one uint64 state per walk and calls this directly; the
// SplitMix64 class below is the same sequence behind an object interface.
inline uint64_t SplitMix64Next(uint64_t& state) {
  return Mix64(state += 0x9e3779b97f4a7c15ULL);
}

// Substream derivation: folds a domain word into a seed, injectively in each
// argument and nonlinearly overall.
//
// This is the library's documented contract for per-walk RNG streams: a
// query derives salt = ChainSeed(seed, source-or-domain), each candidate
// derives ChainSeed(salt, candidate), and each Monte-Carlo trial derives
// ChainSeed(candidate_seed, trial) — the state of that walk's SplitMix64
// draw stream. Because Mix64 is bijective and the Weyl increment
// (word + 1) * 0x9e37... is injective modulo 2^64, two words chained onto
// the *same* seed can never collide; seeds chained from *different* parents
// collide only by 64-bit birthday chance (~N^2 / 2^65 over N streams —
// ~3e-9 for a million walks; tests/util/rng_test.cc pins a 2^20-stream grid
// collision-free). The previous derivation XORed candidate ids into the
// seed linearly, so (seed, candidate) pairs differing in matching bits
// produced identical streams across *different* queries; chaining through
// the finalizer removes that structure.
inline uint64_t ChainSeed(uint64_t seed, uint64_t word) {
  return Mix64(seed + (word + 1) * 0x9e3779b97f4a7c15ULL);
}

// Convenience wrapper of the per-walk contract above: the SplitMix64 state
// of walk (candidate, trial) under a query salt.
inline uint64_t PerWalkSeed(uint64_t salt, uint64_t candidate,
                            uint64_t trial) {
  return ChainSeed(ChainSeed(salt, candidate), trial);
}

// Domain word of the diagonal-correction estimate (simrank/walk.h): walk
// pair (w, s) of node w's d(w) draws from
//   PerWalkSeed(ChainSeed(seed, kDiagonalDomain), w, s),
// the per-walk contract above with the domain word where a query puts its
// source. The word lies above every NodeId (int32), so the d(w) streams
// never share a salt with a query's walks.
inline constexpr uint64_t kDiagonalDomain = 0xd1a90a11;

// Maps a uniform 64-bit draw onto [0, bound) by fixed-point multiply
// (Lemire's method without the rejection step; bound must be > 0). The
// |bias| per outcome is < bound / 2^64 — immaterial for bound up to graph
// scale — and unlike rejection the mapping consumes exactly one draw, which
// the bit-identity contract of the batch walk engine relies on (every walk
// spends a statically known number of draws regardless of outcome).
inline uint64_t MapToRange(uint64_t draw, uint64_t bound) {
  return static_cast<uint64_t>(
      (static_cast<__uint128_t>(draw) * bound) >> 64);
}

// SplitMix64 generator. Mainly used to seed Xoshiro256** and to derive
// decorrelated child streams; passes BigCrush as a 64-bit mixer.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  // Returns the next 64-bit value.
  uint64_t Next();

 private:
  uint64_t state_;
};

// Xoshiro256** pseudo-random generator (Blackman & Vigna). Deterministic,
// seedable, fast, and of far higher quality than std::minstd/rand. All
// randomized algorithms in this library draw from this engine so that runs
// are exactly reproducible given a seed.
class Rng {
 public:
  using result_type = uint64_t;

  // Seeds the four 256-bit lanes from SplitMix64(seed).
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // UniformRandomBitGenerator interface (usable with <random> adaptors).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }
  result_type operator()() { return NextU64(); }

  // The draws below are defined in this header: the baselines' walks and
  // the generators make millions of them, and an out-of-line call costs
  // more than the draw itself.

  // Returns the next raw 64-bit value.
  uint64_t NextU64() {
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // Returns a uniform double in [0, 1).
  double NextDouble() {
    // 53 high bits -> uniform in [0, 1).
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Returns a uniform integer in [0, bound) using Lemire's multiply-shift
  // rejection method; bound must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    // Lemire's nearly-divisionless method.
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      const uint64_t threshold = -bound % bound;
      while (l < threshold) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Returns a uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Returns true with probability p (clamped to [0, 1]).
  bool Bernoulli(double p) { return NextDouble() < p; }

  // Samples the number of trials until the first failure of a Bernoulli(p)
  // success process, i.e. a Geometric(1-p) variate in {1, 2, ...}. Used for
  // sqrt(c)-walk lengths: each step continues with probability p.
  int GeometricLength(double p);

 private:
  uint64_t s_[4];
};

}  // namespace crashsim

#endif  // CRASHSIM_UTIL_RNG_H_
