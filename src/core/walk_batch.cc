#include "core/walk_batch.h"

#include <algorithm>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace crashsim {
namespace {

// Target number of (candidate, trial) jobs per tile: enough to keep every
// lane busy through several refills (so lane-drain tail cost amortises),
// small enough that the per-tile walk-total buffer stays cache-resident.
// A tile always holds whole candidates, so it reaches the Run's trial count
// when that exceeds the target (CrashSim's trial blocks are at most 64).
constexpr int64_t kMinTileJobs = 1024;

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
  // A scalar engine resolves probes through tree.Probability and never
  // reads dense rows; don't make the tree build them for nothing.
  if (batch_size_ > 1) {
    const ReverseReachableTree::DenseRows& rows = tree.EnsureDenseRows();
    dense_ = {rows.prob.data(), rows.row_off.data(), rows.row_off.size()};
  }
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
  for (NodeId v : candidates) eligible += v == skip ? 0 : 1;
  if (eligible == 0) return;

  // Both paths honour the same per-walk draw and fold contract, so routing
  // tiny jobs through the scalar loop is pure policy: below ~two batches of
  // work the SoA setup costs more than it hides.
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
    if (v == skip) continue;
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

// SoA lane and tile state of one RunBatched call (heap-allocated once per
// Run; every round after that is allocation-free).
struct WalkBatchEngine::Scratch {
  // Lane state, one slot per in-flight walk. Slots [0, active) are live.
  std::vector<NodeId> cur;
  std::vector<int32_t> pos;
  std::vector<int32_t> len;
  std::vector<uint64_t> rng_state;
  std::vector<uint32_t> job;     // job index inside the current tile
  std::vector<uint32_t> cand;    // tile-local candidate index of the job
                                 // (kept beside job so retiring a walk
                                 // never divides to recover it)
  std::vector<int32_t> hits;     // per-walk tree-hit count; the step count
                                 // needs no slot — it is pos at retirement
  // Fallback probe staging of the current round: probes on levels without
  // a dense row, at most one per lane, resolved by the batched binary
  // search in phase B. Dense probes never stage — they are one L2-resident
  // load and fold inline in phase A.
  std::vector<uint32_t> fb_lane;
  std::vector<int> fb_level;
  std::vector<NodeId> fb_node;
  std::vector<double> fb_out;
  ReverseReachableTree::ProbeScratch probe_scratch;
  // Current tile: eligible candidates (local index + per-candidate seed)
  // and the per-job walk totals, ordered candidate-major then trial.
  std::vector<uint32_t> tile_ci;
  std::vector<uint64_t> tile_seed;
  std::vector<double> job_mass;
};

void WalkBatchEngine::RunBatched(std::span<const NodeId> candidates,
                                 NodeId skip, int64_t trial_begin,
                                 int64_t trial_end, std::span<double> mass,
                                 std::span<WalkBatchStats> stats) const {
  const size_t lanes = static_cast<size_t>(batch_size_);
  Scratch sc;
  sc.cur.resize(lanes);
  sc.pos.resize(lanes);
  sc.len.resize(lanes);
  sc.rng_state.resize(lanes);
  sc.job.resize(lanes);
  sc.cand.resize(lanes);
  sc.hits.resize(lanes);
  sc.fb_lane.resize(lanes);
  sc.fb_level.resize(lanes);
  sc.fb_node.resize(lanes);
  sc.fb_out.resize(lanes);

  // Raw views of the lane state and the dense probe rows. The hot loop
  // stores through a double* (job_mass) every step; without these locals
  // the compiler must assume each such store aliases the vectors' heap
  // blocks and reload every .data() pointer on every access.
  NodeId* const cur = sc.cur.data();
  int32_t* const pos = sc.pos.data();
  int32_t* const len = sc.len.data();
  uint64_t* const rng = sc.rng_state.data();
  uint32_t* const job = sc.job.data();
  uint32_t* const cand = sc.cand.data();
  int32_t* const hits = sc.hits.data();
  uint32_t* const fb_lane = sc.fb_lane.data();
  int* const fb_level = sc.fb_level.data();
  NodeId* const fb_node = sc.fb_node.data();
  const double* const diag = diag_.empty() ? nullptr : diag_.data();
  const float* const dense_prob = dense_.prob;
  const int64_t* const dense_off = dense_.row_off;
  const size_t dense_levels = dense_.levels;

  const size_t trials = static_cast<size_t>(trial_end - trial_begin);
  const int64_t target_jobs =
      std::max<int64_t>(4 * static_cast<int64_t>(lanes), kMinTileJobs);
  const size_t cand_tile = static_cast<size_t>(
      std::max<int64_t>(1, target_jobs / static_cast<int64_t>(trials)));

  for (size_t c0 = 0; c0 < candidates.size(); c0 += cand_tile) {
    const size_t c1 = std::min(candidates.size(), c0 + cand_tile);
    sc.tile_ci.clear();
    sc.tile_seed.clear();
    for (size_t ci = c0; ci < c1; ++ci) {
      const NodeId v = candidates[ci];
      if (v == skip) continue;
      sc.tile_ci.push_back(static_cast<uint32_t>(ci));
      sc.tile_seed.push_back(ChainSeed(salt_, static_cast<uint64_t>(v)));
    }
    if (sc.tile_ci.empty()) continue;
    const uint32_t* const tci = sc.tile_ci.data();
    const uint64_t* const tseed = sc.tile_seed.data();
    const size_t tile_n = sc.tile_ci.size();
    sc.job_mass.assign(tile_n * trials, 0.0);
    double* const jm = sc.job_mass.data();

    // Job cursor, candidate-major: job j = e * trials + (k - trial_begin).
    size_t next_e = 0;
    int64_t next_k = trial_begin;
    size_t active = 0;
    // Starts the walk of the cursor's job in `slot`; false when the tile
    // has no jobs left.
    auto refill = [&](size_t slot) {
      if (next_e == tile_n) return false;
      const size_t e = next_e;
      const int64_t k = next_k;
      if (++next_k == trial_end) {
        next_k = trial_begin;
        ++next_e;
      }
      job[slot] = static_cast<uint32_t>(
          e * trials + static_cast<size_t>(k - trial_begin));
      cand[slot] = static_cast<uint32_t>(e);
      uint64_t state = ChainSeed(tseed[e], static_cast<uint64_t>(k));
      const int walk_len =
          1 + static_cast<int>(len_sampler_.Sample(SplitMix64Next(state)));
      rng[slot] = state;
      cur[slot] = candidates[tci[e]];
      pos[slot] = 0;
      len[slot] = walk_len;
      hits[slot] = 0;
      return true;
    };
    // Flushes a finished walk's integer counters straight to the candidate
    // slot (integer adds commute, so retire order cannot matter; the step
    // count is just the final position). Its crash mass needs no flush:
    // probe hits fold directly into the walk's job_mass slot — per walk in
    // step order, exactly the grouping the scalar loop's walk accumulator
    // produces.
    auto retire = [&](size_t slot) {
      if (!stats.empty()) {
        const uint32_t ci = tci[cand[slot]];
        stats[ci].walk_steps += pos[slot];
        stats[ci].tree_hits += hits[slot];
      }
    };

    while (active < lanes && refill(active)) ++active;
    while (active > 0) {
      // Phase A: advance every live lane one step, resolving dense probes
      // inline and prefetching what the next round will touch. A lane
      // whose walk ends is retired and refilled in place, so lanes stay
      // full until the tile's jobs run out; a lane is only compacted away
      // (swap with the last live slot) when there is nothing left to
      // refill with. The swapped-in lane always comes from beyond the
      // current slot, so it has not advanced — or staged a probe — this
      // round yet.
      size_t n_staged = 0;
      size_t slot = 0;
      while (slot < active) {
        bool advanced = false;
        for (;;) {
          if (pos[slot] + 1 < len[slot]) {
            const std::span<const NodeId> row = g_.InNeighbors(cur[slot]);
            if (!row.empty()) {
              const uint64_t draw = SplitMix64Next(rng[slot]);
              const NodeId nxt =
                  row[DiscreteSampler::UniformIndex(draw, row.size())];
              cur[slot] = nxt;
              ++pos[slot];
              g_.PrefetchInNeighbors(nxt);
              // Probe the tree at the new position. A dense level is one
              // L2-resident load with an independent address, so it
              // resolves and folds right here — out-of-order execution
              // overlaps the loads across lanes. A sparse level stages for
              // phase B's batched search and prefetches its first pivot.
              // Either way a lane folds at most one hit per round, so the
              // per-lane add order (one per step) is the scalar loop's.
              const int lvl = pos[slot];
              const int64_t off = static_cast<size_t>(lvl) < dense_levels
                                      ? dense_off[static_cast<size_t>(lvl)]
                                      : -1;
              if (off >= 0) {
                // Branchless fold: a miss reads 0.0 and adds 0.0. mass is
                // a sum of non-negative terms (never -0.0), so x + 0.0 is
                // bitwise x and the skip the scalar loop performs is
                // unobservable. Hit probability is data-random, so a
                // conditional here would mispredict constantly.
                const double hit = static_cast<double>(
                    dense_prob[static_cast<size_t>(off) +
                               static_cast<size_t>(nxt)]);
                hits[slot] += static_cast<int32_t>(hit != 0.0);
                jm[job[slot]] +=
                    diag == nullptr ? hit
                                    : hit * diag[static_cast<size_t>(nxt)];
              } else {
                tree_->PrefetchProbability(lvl, nxt);
                fb_lane[n_staged] = static_cast<uint32_t>(slot);
                fb_level[n_staged] = lvl;
                fb_node[n_staged] = nxt;
                ++n_staged;
              }
              advanced = true;
              break;
            }
            // Dead end: forced stop, same as the scalar break.
            len[slot] = pos[slot] + 1;
          }
          retire(slot);
          if (refill(slot)) continue;
          --active;
          if (slot >= active) break;
          cur[slot] = cur[active];
          pos[slot] = pos[active];
          len[slot] = len[active];
          rng[slot] = rng[active];
          job[slot] = job[active];
          cand[slot] = cand[active];
          hits[slot] = hits[active];
        }
        if (advanced) ++slot;
      }

      // Phase B: resolve the sparse-level probes phase A staged through
      // the lockstep batched search, and fold hits into the per-lane walk
      // totals. Dense probes already folded in phase A and never reach
      // here.
      if (n_staged == 0) continue;
      tree_->ProbabilityBatch(
          std::span<const int>(fb_level, n_staged),
          std::span<const NodeId>(fb_node, n_staged),
          std::span<double>(sc.fb_out.data(), n_staged), &sc.probe_scratch);
      for (size_t i = 0; i < n_staged; ++i) {
        // Branchless for the same reason as the dense fold above.
        const double hit = sc.fb_out[i];
        const size_t lane = fb_lane[i];
        hits[lane] += static_cast<int32_t>(hit != 0.0);
        jm[job[lane]] += diag == nullptr
                             ? hit
                             : hit * diag[static_cast<size_t>(fb_node[i])];
      }
    }

    // Tile fold: per candidate, walk totals in ascending-trial order
    // straight into the caller's slot — the exact addition sequence
    // RunScalar performs.
    for (size_t e = 0; e < tile_n; ++e) {
      double& acc = mass[tci[e]];
      const double* row = jm + e * trials;
      for (size_t k = 0; k < trials; ++k) acc += row[k];
    }
  }
}

}  // namespace crashsim
