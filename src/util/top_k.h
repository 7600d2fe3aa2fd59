#ifndef CRASHSIM_UTIL_TOP_K_H_
#define CRASHSIM_UTIL_TOP_K_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace crashsim {

// Bounded top-k selector over (score, item) pairs, keeping the k largest
// scores seen. Ties are broken toward the smaller item so results are
// deterministic across runs. O(log k) insert via a min-heap on the kept set.
template <typename Item>
class TopK {
 public:
  using Entry = std::pair<double, Item>;

  explicit TopK(size_t k) : k_(k) {}

  // Offers one candidate; keeps it if it beats the current k-th best.
  void Offer(double score, const Item& item) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.emplace_back(score, item);
      std::push_heap(heap_.begin(), heap_.end(), Greater);
      return;
    }
    if (Greater(Entry(score, item), heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Greater);
      heap_.back() = Entry(score, item);
      std::push_heap(heap_.begin(), heap_.end(), Greater);
    }
  }

  size_t size() const { return heap_.size(); }

  // Returns the kept entries sorted by descending score (ascending item on
  // ties). Leaves the selector usable afterwards.
  std::vector<Entry> Sorted() const {
    std::vector<Entry> out = heap_;
    std::sort(out.begin(), out.end(), Greater);
    return out;
  }

 private:
  // Strict ordering: higher score first, then smaller item.
  static bool Greater(const Entry& a, const Entry& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  }

  size_t k_;
  std::vector<Entry> heap_;  // min-heap w.r.t. Greater
};

// The k best entries of a dense score vector indexed by item, skipping
// `exclude` (a single-source query's source), in TopK::Sorted() order.
template <typename Item>
std::vector<std::pair<double, Item>> SelectTopK(std::span<const double> scores,
                                                Item exclude, size_t k) {
  TopK<Item> top(k);
  for (size_t i = 0; i < scores.size(); ++i) {
    const Item item = static_cast<Item>(i);
    if (item != exclude) top.Offer(scores[i], item);
  }
  return top.Sorted();
}

}  // namespace crashsim

#endif  // CRASHSIM_UTIL_TOP_K_H_
