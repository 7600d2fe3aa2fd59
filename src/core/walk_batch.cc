#include "core/walk_batch.h"

#include <algorithm>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace crashsim {

namespace {

// One walk of the sweep: its SplitMix64 state, current node, job index
// inside the tile, and drawn length in nodes.
struct Walk {
  uint64_t rng;
  NodeId cur;
  uint32_t job;
  int32_t len;
};

// Per-job accumulators: crash mass folded in step order, steps taken, and
// tree hits.
struct JobTotals {
  double mass;
  int32_t steps;
  int32_t hits;
};

}  // namespace

WalkBatchEngine::WalkBatchEngine(const Graph& g,
                                 const ReverseReachableTree& tree,
                                 std::span<const double> diag, double sqrt_c,
                                 int max_walk_nodes, uint64_t stream_salt,
                                 int batch_size)
    : g_(g),
      tree_(&tree),
      diag_(diag),
      salt_(stream_salt),
      batch_size_(batch_size),
      len_sampler_(TruncatedGeometricWeights(sqrt_c, max_walk_nodes),
                   DiscreteSampler::Backend::kAuto) {
  CRASHSIM_CHECK(max_walk_nodes >= 1);
  CRASHSIM_CHECK(batch_size_ >= 1 && batch_size_ <= kMaxWalkBatch);
  const ReverseReachableTree::DenseRows& rows = tree.EnsureDenseRows();
  dense_ = {rows.prob.data(), rows.row_off.data(), rows.row_off.size()};
}

void WalkBatchEngine::Run(std::span<const NodeId> candidates, NodeId skip,
                          int64_t trial_begin, int64_t trial_end,
                          std::span<double> mass,
                          std::span<WalkBatchStats> stats) const {
  const int64_t trials = trial_end - trial_begin;
  if (trials <= 0 || candidates.empty()) return;
  CRASHSIM_CHECK(stats.empty() || stats.size() >= candidates.size());
  CRASHSIM_CHECK(mass.size() >= candidates.size());
  int64_t eligible = 0;
  for (NodeId v : candidates) eligible += DrawsWalks(v, skip) ? 1 : 0;
  if (eligible == 0) return;

  // Both paths honour the same per-walk draw and fold contract, so routing
  // tiny jobs through the scalar loop is pure policy: below ~two tiles of
  // work the tile setup costs more than the sweep saves.
  if (batch_size_ <= 1 ||
      eligible * trials < 2 * static_cast<int64_t>(batch_size_)) {
    RunScalar(candidates, skip, trial_begin, trial_end, mass, stats);
  } else {
    RunBatched(candidates, skip, trial_begin, trial_end, mass, stats);
  }
}

void WalkBatchEngine::RunScalar(std::span<const NodeId> candidates,
                                NodeId skip, int64_t trial_begin,
                                int64_t trial_end, std::span<double> mass,
                                std::span<WalkBatchStats> stats) const {
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    const NodeId v = candidates[ci];
    if (!DrawsWalks(v, skip)) continue;
    const uint64_t cand_seed = ChainSeed(salt_, static_cast<uint64_t>(v));
    int64_t steps = 0;
    int64_t hits = 0;
    for (int64_t k = trial_begin; k < trial_end; ++k) {
      uint64_t state = ChainSeed(cand_seed, static_cast<uint64_t>(k));
      const int len =
          1 + static_cast<int>(len_sampler_.Sample(SplitMix64Next(state)));
      double walk_mass = 0.0;
      NodeId cur = v;
      for (int pos = 1; pos < len; ++pos) {
        const std::span<const NodeId> row = g_.InNeighbors(cur);
        if (row.empty()) break;
        cur = row[DiscreteSampler::UniformIndex(SplitMix64Next(state),
                                                row.size())];
        ++steps;
        const double hit = tree_->Probability(pos, cur);
        if (hit == 0.0) continue;
        ++hits;
        walk_mass +=
            hit * (diag_.empty() ? 1.0 : diag_[static_cast<size_t>(cur)]);
      }
      mass[ci] += walk_mass;
    }
    if (!stats.empty()) {
      stats[ci].walk_steps += steps;
      stats[ci].tree_hits += hits;
    }
  }
}

void WalkBatchEngine::RunBatched(std::span<const NodeId> candidates,
                                 NodeId skip, int64_t trial_begin,
                                 int64_t trial_end, std::span<double> mass,
                                 std::span<WalkBatchStats> stats) const {
  // Per-tile buffers, allocated once per Run. Totals live per job — the
  // tile's candidate-major (candidate, trial) order, in which they fold —
  // and walks per sweep slot: slots [0, live) hold the walks that take the
  // next step, compacted after every step. node/node_job stage the nodes a
  // step reached, and their jobs, for the search of a level without a
  // dense row, and found receives that search's results.
  const size_t tile_cap = static_cast<size_t>(batch_size_);
  std::vector<uint32_t> job_ci_buf(tile_cap);  // index into candidates
  std::vector<JobTotals> totals_buf(tile_cap);
  std::vector<Walk> walks_buf(tile_cap);
  std::vector<NodeId> node_buf(tile_cap);
  std::vector<uint32_t> node_job_buf(tile_cap);
  std::vector<double> found(tile_cap);
  // Raw views. The sweep stores through these every step; without the
  // locals the compiler must assume each store may alias a vector's
  // bookkeeping and reload every .data() pointer.
  uint32_t* const job_ci = job_ci_buf.data();
  JobTotals* const totals = totals_buf.data();
  Walk* const walks = walks_buf.data();
  NodeId* const node = node_buf.data();
  uint32_t* const node_job = node_job_buf.data();
  const double* const diag = diag_.empty() ? nullptr : diag_.data();

  size_t ci = 0;
  int64_t k = trial_begin;
  while (ci < candidates.size()) {
    // Start up to batch_size walks in job order: draw each length (the
    // first draw of the walk's stream) and keep the walk in the sweep only
    // if it takes a step at all. Every slot is written and the live count
    // advances by the keep flag, so no branch depends on the draw.
    size_t tile_n = 0;
    size_t live = 0;
    while (tile_n < tile_cap && ci < candidates.size()) {
      const NodeId v = candidates[ci];
      if (!DrawsWalks(v, skip)) {
        ++ci;
        continue;
      }
      const uint64_t cand_seed = ChainSeed(salt_, static_cast<uint64_t>(v));
      const int64_t k_end = std::min<int64_t>(
          trial_end, k + static_cast<int64_t>(tile_cap - tile_n));
      for (; k < k_end; ++k, ++tile_n) {
        Walk& w = walks[live];
        w.rng = ChainSeed(cand_seed, static_cast<uint64_t>(k));
        w.len = 1 + static_cast<int32_t>(
                        len_sampler_.Sample(SplitMix64Next(w.rng)));
        w.cur = v;
        w.job = static_cast<uint32_t>(tile_n);
        job_ci[tile_n] = static_cast<uint32_t>(ci);
        totals[tile_n] = {0.0, w.len - 1, 0};
        live += static_cast<size_t>(w.len > 1);
      }
      if (k == trial_end) {
        k = trial_begin;
        ++ci;
      }
    }

    // Sweep: step s moves every live walk from position s - 1 to s and
    // probes tree level s only — one dense row that stays in L1, or one
    // sorted sparse slice. `probe(w, t)` sees walk w, with its job totals
    // t, on its new node. A walk folds at most one hit per step into its
    // own job slot, so its mass still sums in step order. A walk stays
    // live while it has steps left, compacted without a branch like the
    // start-up above; a dead end (no in-neighbour) is the scalar loop's
    // break, so the walk stops short and is dropped.
    auto step = [&](int s, auto probe) {
      size_t kept = 0;
      for (size_t i = 0; i < live; ++i) {
        Walk w = walks[i];
        JobTotals& t = totals[w.job];
        const std::span<const NodeId> row = g_.InNeighbors(w.cur);
        if (row.empty()) {
          t.steps = s - 1;
          continue;
        }
        w.cur = row[DiscreteSampler::UniformIndex(SplitMix64Next(w.rng),
                                                  row.size())];
        probe(w, t);
        walks[kept] = w;
        kept += static_cast<size_t>(w.len > s + 1);
      }
      return kept;
    };
    // Branchless fold: a miss adds 0.0. mass is a sum of non-negative
    // terms (never -0.0), so x + 0.0 is bitwise x and the skip the scalar
    // loop performs is unobservable. Hit probability is data-random, so a
    // conditional here would mispredict constantly.
    auto fold = [diag](JobTotals& t, double hit, NodeId w) {
      t.hits += static_cast<int32_t>(hit != 0.0);
      t.mass += diag == nullptr ? hit : hit * diag[w];
    };
    for (int s = 1; live > 0; ++s) {
      const size_t lvl = static_cast<size_t>(s);
      const int64_t off = lvl < dense_.levels ? dense_.row_off[lvl] : -1;
      if (off >= 0) {
        const float* const dense = dense_.prob + off;
        live = step(s, [&](const Walk& w, JobTotals& t) {
          fold(t, static_cast<double>(dense[static_cast<size_t>(w.cur)]),
               w.cur);
        });
      } else if (tree_->Level(s).empty()) {
        live = step(s, [](const Walk&, JobTotals&) {});
      } else {
        // No dense row: search the level for every walk that stepped onto
        // it at once, then fold the same way.
        size_t stepped = 0;
        live = step(s, [&](const Walk& w, JobTotals&) {
          node[stepped] = w.cur;
          node_job[stepped] = w.job;
          ++stepped;
        });
        tree_->ProbabilityBatch(s, std::span<const NodeId>(node, stepped),
                                found);
        for (size_t i = 0; i < stepped; ++i) {
          fold(totals[node_job[i]], found[i], node[i]);
        }
      }
    }

    // Tile fold in job order: per candidate, walk totals in ascending-trial
    // order straight into the caller's slot — the exact addition sequence
    // RunScalar performs. A candidate split across tiles continues in the
    // next tile where this one stopped.
    for (size_t j = 0; j < tile_n; ++j) {
      mass[job_ci[j]] += totals[j].mass;
      if (!stats.empty()) {
        stats[job_ci[j]].walk_steps += totals[j].steps;
        stats[job_ci[j]].tree_hits += totals[j].hits;
      }
    }
  }
}

}  // namespace crashsim
