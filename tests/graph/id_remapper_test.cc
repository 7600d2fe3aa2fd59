#include "graph/id_remapper.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace crashsim {
namespace {

// Inverse of a multiplication by odd `a` modulo 2^64 (Newton's iteration).
uint64_t InverseOdd(uint64_t a) {
  uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

// Inverse of x ^= x >> s: x is the XOR of y >> (k * s) over k >= 0.
uint64_t UnXorShift(uint64_t y, int s) {
  uint64_t x = y;
  for (int k = s; k < 64; k += s) x ^= y >> k;
  return x;
}

uint64_t UnMix64(uint64_t x) {
  x = UnXorShift(x, 31);
  x *= InverseOdd(0x94d049bb133111ebULL);
  x = UnXorShift(x, 27);
  x *= InverseOdd(0xbf58476d1ce4e5b9ULL);
  return UnXorShift(x, 30);
}

// Ids whose unseeded hash Mix64(id) has its low 32 bits zero: every one of
// them lands in slot 0 of any table of up to 2^32 slots.
std::vector<int64_t> CollidingIds(int n) {
  std::vector<int64_t> ids;
  for (int k = 1; k <= n; ++k) {
    const uint64_t id = UnMix64(static_cast<uint64_t>(k) << 32);
    EXPECT_EQ(Mix64(id), static_cast<uint64_t>(k) << 32);
    ids.push_back(static_cast<int64_t>(id));
  }
  return ids;
}

TEST(IdRemapperTest, AssignsDenseIdsInFirstAppearanceOrder) {
  for (const uint64_t seed : {uint64_t{0}, uint64_t{0x5eed}}) {
    IdRemapper remap(seed);
    std::vector<NodeId> dense;
    for (const int64_t id : {40, 7, 40, -3, 7, 1000000007, 0}) {
      dense.push_back(remap.Map(id));
    }
    EXPECT_EQ(dense, (std::vector<NodeId>{0, 1, 0, 2, 1, 3, 4}));
    EXPECT_EQ(remap.size(), 5);
    EXPECT_EQ(remap.TakeOriginals(),
              (std::vector<int64_t>{40, 7, -3, 1000000007, 0}));
  }
}

TEST(IdRemapperTest, CraftedCollisionsStayLinearUnderASeed) {
  constexpr int kIds = 4096;
  const std::vector<int64_t> ids = CollidingIds(kIds);

  // Seed 0 is the unseeded hash: the crafted ids really collide, and every
  // insert walks the whole cluster.
  IdRemapper unseeded(0);
  for (const int64_t id : ids) unseeded.Map(id);
  EXPECT_GE(unseeded.TotalProbes(), int64_t{kIds} * (kIds + 1) / 2);

  // Any other seed, fixed or drawn, spreads the same ids.
  IdRemapper drawn;
  IdRemapper fixed(0x9e3779b97f4a7c15ULL);
  for (const int64_t id : ids) {
    drawn.Map(id);
    fixed.Map(id);
  }
  EXPECT_LE(drawn.TotalProbes(), 4 * kIds);
  EXPECT_LE(fixed.TotalProbes(), 4 * kIds);
  EXPECT_EQ(fixed.TakeOriginals(), ids);
}

}  // namespace
}  // namespace crashsim
