#ifndef CRASHSIM_GRAPH_ID_REMAPPER_H_
#define CRASHSIM_GRAPH_ID_REMAPPER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "graph/edge.h"
#include "util/rng.h"

namespace crashsim {

// Assigns dense ids to the original ids of an edge-list file in
// first-appearance order. Open addressing, at most half full: a slot holds a
// dense id (-1 = empty) and the key is compared against originals_[id], so
// the table grows by rehashing, not by one allocation per id.
//
// Slots are Mix64(original ^ seed). Mix64 is public and invertible, so an
// unseeded table would let a file pick ids that all share their low hash
// bits and make loading N ids cost O(N^2) probes; the default seed is drawn
// per table from std::random_device. The seed moves ids between slots only:
// the dense ids, and so every loaded graph, do not depend on it.
class IdRemapper {
 public:
  IdRemapper() : IdRemapper(RandomSeed()) {}
  explicit IdRemapper(uint64_t seed) : seed_(seed) {}

  NodeId Map(int64_t original) {
    if (2 * (originals_.size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Slot(original, mask);; i = (i + 1) & mask) {
      const NodeId id = slots_[i];
      if (id < 0) {
        slots_[i] = size();
        originals_.push_back(original);
        return slots_[i];
      }
      if (originals_[static_cast<size_t>(id)] == original) return id;
    }
  }

  NodeId size() const { return static_cast<NodeId>(originals_.size()); }
  std::vector<int64_t> TakeOriginals() { return std::move(originals_); }

  // Slots that looking up every mapped id inspects, summed: about 1.5 per
  // id when the hash spreads the ids, N(N+1)/2 when they all collide.
  int64_t TotalProbes() const {
    const size_t mask = slots_.size() - 1;
    int64_t probes = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i] < 0) continue;
      const size_t home =
          Slot(originals_[static_cast<size_t>(slots_[i])], mask);
      probes += static_cast<int64_t>(((i - home) & mask) + 1);
    }
    return probes;
  }

 private:
  static uint64_t RandomSeed() {
    std::random_device device;
    return (uint64_t{device()} << 32) ^ device();
  }

  size_t Slot(int64_t original, size_t mask) const {
    return static_cast<size_t>(Mix64(static_cast<uint64_t>(original) ^ seed_)) &
           mask;
  }

  void Grow() {
    slots_.assign(std::max<size_t>(64, 2 * slots_.size()), -1);
    const size_t mask = slots_.size() - 1;
    for (size_t id = 0; id < originals_.size(); ++id) {
      size_t i = Slot(originals_[id], mask);
      while (slots_[i] >= 0) i = (i + 1) & mask;
      slots_[i] = static_cast<NodeId>(id);
    }
  }

  uint64_t seed_;
  std::vector<NodeId> slots_;
  std::vector<int64_t> originals_;
};

}  // namespace crashsim

#endif  // CRASHSIM_GRAPH_ID_REMAPPER_H_
