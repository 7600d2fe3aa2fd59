#include "simrank/sling.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "simrank/walk.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timer.h"

namespace crashsim {

Sling::Sling(const SimRankOptions& options)
    : options_(options),
      sqrt_c_(std::sqrt(options.c)),
      prune_threshold_(options.epsilon / 8.0) {}

void Sling::Bind(const Graph* g) {
  const Status valid = options_.Validate();
  CRASHSIM_CHECK(valid.ok()) << valid;
  set_graph(g);
  Stopwatch timer;
  // Depth where even an un-branched walk's mass falls under the threshold.
  max_depth_ = std::max(
      1, static_cast<int>(std::ceil(std::log(prune_threshold_) /
                                    std::log(sqrt_c_))));
  if (options_.max_walk_length > 0) {
    max_depth_ = std::min(max_depth_, options_.max_walk_length);
  }
  // d(w) draws from a fresh Rng(seed) on every Bind, so the index is a pure
  // function of (graph, options) and never of what was bound before.
  Rng rng(options_.seed);
  diag_ = EstimateDiagonalCorrections(*g, options_.c, diag_samples_,
                                      max_depth_ + 1, &rng);
  BuildReverseLists();
  stats_.build_seconds = timer.ElapsedSeconds();
}

void Sling::BuildReverseLists() {
  const Graph& g = *graph();
  const NodeId n = g.num_nodes();
  reverse_.assign(static_cast<size_t>(n), {});
  stats_.reverse_entries = 0;

  // Per-w local push; parallel across w (disjoint output slots).
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    std::vector<double> cur(static_cast<size_t>(n), 0.0);
    std::vector<double> next(static_cast<size_t>(n), 0.0);
    std::vector<NodeId> touched_cur;
    std::vector<NodeId> touched_next;
    for (int64_t wi = begin; wi < end; ++wi) {
      const NodeId w = static_cast<NodeId>(wi);
      auto& levels = reverse_[static_cast<size_t>(w)];
      touched_cur.clear();
      cur[static_cast<size_t>(w)] = 1.0;
      touched_cur.push_back(w);
      for (int t = 1; t <= max_depth_; ++t) {
        touched_next.clear();
        for (NodeId x : touched_cur) {
          const double mass = cur[static_cast<size_t>(x)];
          cur[static_cast<size_t>(x)] = 0.0;
          if (mass < prune_threshold_) continue;
          for (NodeId y : g.OutNeighbors(x)) {
            const double add =
                mass * sqrt_c_ / static_cast<double>(g.InDegree(y));
            double& slot = next[static_cast<size_t>(y)];
            if (slot == 0.0) touched_next.push_back(y);
            slot += add;
          }
        }
        if (touched_next.empty()) break;
        std::vector<LevelEntry> level;
        level.reserve(touched_next.size());
        for (NodeId v : touched_next) {
          const double h = next[static_cast<size_t>(v)];
          if (h >= prune_threshold_) {
            level.push_back(LevelEntry{v, static_cast<float>(h)});
          }
        }
        levels.resize(static_cast<size_t>(t) + 1);
        levels[static_cast<size_t>(t)] = std::move(level);
        touched_cur.swap(touched_next);
        cur.swap(next);
      }
      // Clear residue for the next w.
      for (NodeId x : touched_cur) cur[static_cast<size_t>(x)] = 0.0;
    }
  });
  for (const auto& levels : reverse_) {
    for (const auto& level : levels) {
      stats_.reverse_entries += static_cast<int64_t>(level.size());
    }
  }
}

std::vector<double> Sling::SingleSource(NodeId u) {
  const Graph& g = *graph();
  CRASHSIM_CHECK(u >= 0 && u < g.num_nodes());
  const NodeId n = g.num_nodes();
  std::vector<double> scores(static_cast<size_t>(n), 0.0);

  // Forward push from u along in-edges: h_t(u, .).
  std::vector<double> cur(static_cast<size_t>(n), 0.0);
  std::vector<double> next(static_cast<size_t>(n), 0.0);
  std::vector<NodeId> touched_cur{u};
  std::vector<NodeId> touched_next;
  cur[static_cast<size_t>(u)] = 1.0;

  for (int t = 1; t <= max_depth_; ++t) {
    touched_next.clear();
    for (NodeId x : touched_cur) {
      const double mass = cur[static_cast<size_t>(x)];
      cur[static_cast<size_t>(x)] = 0.0;
      if (mass < prune_threshold_) continue;
      const auto in = g.InNeighbors(x);
      if (in.empty()) continue;
      const double share = mass * sqrt_c_ / static_cast<double>(in.size());
      for (NodeId y : in) {
        double& slot = next[static_cast<size_t>(y)];
        if (slot == 0.0) touched_next.push_back(y);
        slot += share;
      }
    }
    if (touched_next.empty()) break;
    // Join h_t(u, w) against w's reverse level t.
    for (NodeId w : touched_next) {
      const double hu = next[static_cast<size_t>(w)];
      const auto& levels = reverse_[static_cast<size_t>(w)];
      if (static_cast<int>(levels.size()) <= t) continue;
      const double scale = hu * diag_[static_cast<size_t>(w)];
      for (const LevelEntry& e : levels[static_cast<size_t>(t)]) {
        scores[static_cast<size_t>(e.v)] += scale * e.h;
      }
    }
    touched_cur.swap(touched_next);
    cur.swap(next);
  }
  for (NodeId x : touched_cur) cur[static_cast<size_t>(x)] = 0.0;
  scores[static_cast<size_t>(u)] = 1.0;
  return scores;
}

namespace {
constexpr uint32_t kSlingIndexMagic = 0x534c4e47;  // "SLNG"
constexpr uint32_t kSlingIndexVersion = 1;

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}
}  // namespace

void Sling::SaveIndex(std::ostream& out) const {
  CRASHSIM_CHECK(graph() != nullptr) << "SaveIndex requires a bound graph";
  const NodeId n = graph()->num_nodes();
  WritePod(out, kSlingIndexMagic);
  WritePod(out, kSlingIndexVersion);
  WritePod(out, n);
  WritePod(out, static_cast<int32_t>(max_depth_));
  WritePod(out, prune_threshold_);
  out.write(reinterpret_cast<const char*>(diag_.data()),
            static_cast<std::streamsize>(diag_.size() * sizeof(double)));
  for (NodeId w = 0; w < n; ++w) {
    const auto& levels = reverse_[static_cast<size_t>(w)];
    WritePod(out, static_cast<int32_t>(levels.size()));
    for (const auto& level : levels) {
      WritePod(out, static_cast<int32_t>(level.size()));
      out.write(reinterpret_cast<const char*>(level.data()),
                static_cast<std::streamsize>(level.size() * sizeof(LevelEntry)));
    }
  }
}

bool Sling::LoadIndex(std::istream& in, std::string* error) {
  CRASHSIM_CHECK(graph() != nullptr) << "LoadIndex requires a bound graph";
  uint32_t magic = 0;
  uint32_t version = 0;
  NodeId n = 0;
  int32_t depth = 0;
  double threshold = 0.0;
  if (!ReadPod(in, &magic) || magic != kSlingIndexMagic) {
    *error = "not a SLING index (bad magic)";
    return false;
  }
  if (!ReadPod(in, &version) || version != kSlingIndexVersion) {
    *error = "unsupported SLING index version";
    return false;
  }
  if (!ReadPod(in, &n) || !ReadPod(in, &depth) || !ReadPod(in, &threshold)) {
    *error = "truncated SLING index header";
    return false;
  }
  if (n != graph()->num_nodes()) {
    *error = "SLING index shape mismatch (node count differs)";
    return false;
  }
  std::vector<double> diag(static_cast<size_t>(n));
  in.read(reinterpret_cast<char*>(diag.data()),
          static_cast<std::streamsize>(diag.size() * sizeof(double)));
  if (!in) {
    *error = "truncated SLING index diagonal";
    return false;
  }
  std::vector<std::vector<std::vector<LevelEntry>>> reverse(
      static_cast<size_t>(n));
  int64_t entries = 0;
  for (NodeId w = 0; w < n; ++w) {
    int32_t num_levels = 0;
    if (!ReadPod(in, &num_levels) || num_levels < 0 || num_levels > depth + 1) {
      *error = "corrupt SLING index levels";
      return false;
    }
    auto& levels = reverse[static_cast<size_t>(w)];
    levels.resize(static_cast<size_t>(num_levels));
    for (auto& level : levels) {
      int32_t count = 0;
      if (!ReadPod(in, &count) || count < 0 || count > n) {
        *error = "corrupt SLING index level size";
        return false;
      }
      level.resize(static_cast<size_t>(count));
      in.read(reinterpret_cast<char*>(level.data()),
              static_cast<std::streamsize>(level.size() * sizeof(LevelEntry)));
      if (!in) {
        *error = "truncated SLING index body";
        return false;
      }
      for (const LevelEntry& e : level) {
        if (e.v < 0 || e.v >= n) {
          *error = "SLING index contains out-of-range nodes";
          return false;
        }
      }
      entries += count;
    }
  }
  max_depth_ = depth;
  prune_threshold_ = threshold;
  diag_ = std::move(diag);
  reverse_ = std::move(reverse);
  stats_.reverse_entries = entries;
  return true;
}

}  // namespace crashsim
