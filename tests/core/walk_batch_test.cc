// Differential suite of the SoA batch walk engine: batch_size and
// num_threads are pure performance knobs, so every (batch, threads)
// combination must produce bit-identical scores — including partial answers
// cut by a deadline or a cancellation, which must equal a fresh run with
// trials_override = trials_done (the anytime contract holds per trial-block
// boundary regardless of lane batching).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/crashsim.h"
#include "core/rev_reach.h"
#include "core/walk_batch.h"
#include "graph/generators.h"

namespace crashsim {
namespace {

CrashSimOptions Options(int batch, int threads, int64_t trials = 600,
                        uint64_t seed = 42) {
  CrashSimOptions opt;
  opt.mc.c = 0.6;
  opt.mc.trials_override = trials;
  opt.mc.seed = seed;
  opt.num_threads = threads;
  opt.batch_size = batch;
  return opt;
}

// Every node of g. Partial over it runs the walks under test; SingleSource
// sweeps instead and draws no walk (core/crashsim.h).
std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> all(static_cast<size_t>(g.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

const int kBatchSweep[] = {1, 4, 32, 256};
const int kThreadSweep[] = {1, 8};

TEST(WalkBatchTest, BitIdenticalAcrossBatchSizesAndThreadCounts) {
  Rng rng(7);
  const Graph g = ErdosRenyi(130, 560, false, &rng);
  std::vector<double> reference;
  for (const int batch : kBatchSweep) {
    for (const int threads : kThreadSweep) {
      CrashSim algo(Options(batch, threads));
      ASSERT_TRUE(algo.Bind(&g).ok());
      const PartialResult r = algo.Partial(5, AllNodes(g), nullptr);
      ASSERT_TRUE(r.complete());
      if (reference.empty()) {
        reference = r.scores;
      } else {
        EXPECT_EQ(reference, r.scores)
            << "batch=" << batch << " threads=" << threads;
      }
    }
  }
  // The reference is the batch_size = 1 scalar loop — i.e. every batched
  // configuration above matched the legacy walk-at-a-time shape exactly.
  ASSERT_FALSE(reference.empty());
}

TEST(WalkBatchTest, TopKRankingIdenticalAcrossBatchSizes) {
  // Bit-identical scores imply identical top-k; assert it directly on the
  // ranking the serving path returns so a future tie-break change cannot
  // silently couple ranking to batch layout.
  Rng rng(11);
  const Graph g = BarabasiAlbert(200, 4, false, &rng);
  std::vector<std::pair<double, NodeId>> reference;
  for (const int batch : kBatchSweep) {
    CrashSim algo(Options(batch, 8, 400, 9));
    ASSERT_TRUE(algo.Bind(&g).ok());
    const PartialResult r = algo.Partial(0, AllNodes(g), nullptr);
    ASSERT_TRUE(r.complete());
    std::vector<std::pair<double, NodeId>> ranked;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == 0) continue;
      ranked.emplace_back(r.scores[static_cast<size_t>(v)], v);
    }
    std::partial_sort(ranked.begin(), ranked.begin() + 10, ranked.end(),
                      [](const auto& a, const auto& b) {
                        return a.first != b.first ? a.first > b.first
                                                  : a.second < b.second;
                      });
    ranked.resize(10);
    if (reference.empty()) {
      reference = ranked;
    } else {
      EXPECT_EQ(reference, ranked) << "batch=" << batch;
    }
  }
}

TEST(WalkBatchTest, CorrectedModeMatchesAcrossBatchSizes) {
  Rng rng(3);
  const Graph g = ErdosRenyi(90, 360, false, &rng);
  std::vector<double> reference;
  for (const int batch : kBatchSweep) {
    CrashSimOptions opt = Options(batch, 4, 300, 21);
    opt.mode = RevReachMode::kCorrected;
    opt.diag_samples = 200;
    CrashSim algo(opt);
    ASSERT_TRUE(algo.Bind(&g).ok());
    const PartialResult r = algo.Partial(2, AllNodes(g), nullptr);
    ASSERT_TRUE(r.complete());
    if (reference.empty()) {
      reference = r.scores;
    } else {
      EXPECT_EQ(reference, r.scores) << "batch=" << batch;
    }
  }
}

TEST(WalkBatchTest, DeadlineTruncatedPartialIsBitIdenticalAcrossBatchSizes) {
  // An already-expired deadline cuts the walk loop after the first trial
  // block (one trial) — the tree is pre-built, so the anytime "first block
  // always runs" contract applies. The truncated scores must agree across
  // every batch size AND equal a fresh complete run with trials_override=1.
  Rng rng(19);
  const Graph g = ErdosRenyi(120, 500, false, &rng);
  std::vector<NodeId> cands(static_cast<size_t>(g.num_nodes()));
  std::iota(cands.begin(), cands.end(), 0);
  CrashSim fresh(Options(1, 1, /*trials=*/1));
  ASSERT_TRUE(fresh.Bind(&g).ok());
  const ReverseReachableTree tree = fresh.BuildTree(4);
  const PartialResult want = fresh.PartialWithTree(tree, cands, nullptr);
  ASSERT_TRUE(want.complete());
  for (const int batch : kBatchSweep) {
    for (const int threads : kThreadSweep) {
      CrashSim algo(Options(batch, threads, 600));
      ASSERT_TRUE(algo.Bind(&g).ok());
      QueryContext ctx(std::chrono::milliseconds(-1));
      const PartialResult r = algo.PartialWithTree(tree, cands, &ctx);
      ASSERT_FALSE(r.complete());
      ASSERT_EQ(r.trials_done, 1);
      EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
      EXPECT_EQ(want.scores, r.scores)
          << "batch=" << batch << " threads=" << threads;
    }
  }
}

TEST(WalkBatchTest, CancellationBeforeRunStillYieldsOneTrialBlock) {
  // Cancel before the walk loop starts: the first block always runs (the
  // anytime contract guarantees a non-empty partial answer), then the first
  // checkpoint observes the flag — at every batch size.
  Rng rng(23);
  const Graph g = ErdosRenyi(80, 320, false, &rng);
  std::vector<NodeId> cands(static_cast<size_t>(g.num_nodes()));
  std::iota(cands.begin(), cands.end(), 0);
  CrashSim fresh(Options(1, 1, /*trials=*/1));
  ASSERT_TRUE(fresh.Bind(&g).ok());
  const ReverseReachableTree tree = fresh.BuildTree(6);
  const PartialResult want = fresh.PartialWithTree(tree, cands, nullptr);
  ASSERT_TRUE(want.complete());
  for (const int batch : {4, 256}) {
    CrashSim algo(Options(batch, 8, 600));
    ASSERT_TRUE(algo.Bind(&g).ok());
    QueryContext cancelled;
    cancelled.Cancel();
    const PartialResult got = algo.PartialWithTree(tree, cands, &cancelled);
    ASSERT_EQ(got.trials_done, 1);
    EXPECT_EQ(got.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(want.scores, got.scores) << "batch=" << batch;
  }
}

TEST(WalkBatchTest, CancellationMidRunReplaysToIdenticalPrefix) {
  // Racy by design: a background thread cancels while the query runs, so
  // the cut lands at an arbitrary trial-block boundary. Wherever it lands,
  // a fresh run with trials_override = trials_done must reproduce the
  // partial scores bit for bit — the anytime contract at batch granularity.
  Rng rng(29);
  const Graph g = ErdosRenyi(150, 600, false, &rng);
  for (const int batch : {4, 256}) {
    CrashSim algo(Options(batch, 8, /*trials=*/5000, 31));
    ASSERT_TRUE(algo.Bind(&g).ok());
    QueryContext ctx;
    std::atomic<bool> go{false};
    std::thread canceller([&] {
      while (!go.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      ctx.Cancel();
    });
    go.store(true);
    const PartialResult partial = algo.Partial(9, AllNodes(g), &ctx);
    canceller.join();
    if (partial.trials_done == 0) {
      // The cut landed before the first trial block — inside the
      // context-aware tree build (common under sanitizers, where the build
      // outlasts the canceller's delay). The contract only promises one
      // block once the trial loop STARTS, so the prefix to replay is
      // empty; just require the cancellation surfaced.
      EXPECT_EQ(partial.status.code(), StatusCode::kCancelled);
      continue;
    }
    CrashSim replay(Options(1, 1, partial.trials_done, 31));
    ASSERT_TRUE(replay.Bind(&g).ok());
    const PartialResult full = replay.Partial(9, AllNodes(g), nullptr);
    ASSERT_TRUE(full.complete());
    EXPECT_EQ(full.scores, partial.scores)
        << "batch=" << batch << " trials_done=" << partial.trials_done;
  }
}

TEST(WalkBatchTest, PartialCandidateSubsetsMatchFullRun) {
  // Run output per candidate must not depend on which other candidates sit
  // in the same call — the property candidate-level parallelism and the
  // executor's shrinking candidate sets rely on.
  Rng rng(37);
  const Graph g = ErdosRenyi(100, 400, false, &rng);
  CrashSim algo(Options(32, 1, 500, 5));
  ASSERT_TRUE(algo.Bind(&g).ok());
  const PartialResult full = algo.Partial(3, AllNodes(g), nullptr);
  const std::vector<NodeId> subset = {99, 17, 3, 42, 0};
  CrashSim again(Options(256, 1, 500, 5));
  ASSERT_TRUE(again.Bind(&g).ok());
  const PartialResult part = again.Partial(3, subset, nullptr);
  ASSERT_TRUE(part.complete());
  for (size_t i = 0; i < subset.size(); ++i) {
    EXPECT_EQ(part.scores[i],
              full.scores[static_cast<size_t>(subset[i])])
        << "candidate " << subset[i];
  }
}

TEST(WalkBatchTest, EdgeGraphShapesMatchScalarExactly) {
  // Dead ends (path sources), forced single-node walks, hub fan-in (star):
  // the sweep's compaction and dead-end drop must agree with the scalar
  // loop on every degenerate shape, not just on well-mixed random graphs.
  const Graph shapes[] = {PathGraph(40, false), StarGraph(64, false),
                          CycleGraph(12, false)};
  for (const Graph& g : shapes) {
    std::vector<double> reference;
    for (const int batch : kBatchSweep) {
      CrashSim algo(Options(batch, 1, 400, 13));
      ASSERT_TRUE(algo.Bind(&g).ok());
      const PartialResult r =
          algo.Partial(g.num_nodes() - 1, AllNodes(g), nullptr);
      ASSERT_TRUE(r.complete());
      if (reference.empty()) {
        reference = r.scores;
      } else {
        EXPECT_EQ(reference, r.scores)
            << "batch=" << batch << " n=" << g.num_nodes();
      }
    }
  }
}

// The nodes of `g` with in-degree in [lo, hi], ascending.
std::vector<NodeId> NodesWithInDegree(const Graph& g, int lo, int hi) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.InDegree(v) >= lo && g.InDegree(v) <= hi) out.push_back(v);
  }
  return out;
}

TEST(WalkBatchTest, EngineRunIndependentOfTrialRangeSplit) {
  // Run([0, n)) must equal Run([0, a)) + Run([a, b)) + Run([b, n)) folded
  // into the same accumulators — the property the trial-block loop is built
  // on, checked here directly at the engine level. The range is longer than
  // a few hundred trials (a tile then holds one candidate's whole range),
  // both modes run (corrected mode scales every hit by d(w)), and every
  // batch size must equal the batch-1 scalar twin in scores and counters.
  //
  // Two inputs. A small graph, where every probed level earns a dense row
  // (n / 64 <= 1). And a 2000-node graph with a source of in-degree 2..4:
  // its first levels hold fewer than n / 64 entries, so walks probe them
  // through ProbabilityBatch's multi-round search, and its zero-in-degree
  // nodes cut walks short at dead ends on those levels too.
  Rng rng(43);
  const Graph small = ErdosRenyi(60, 240, false, &rng);
  const Graph large = ErdosRenyi(2000, 5000, false, &rng);
  const std::vector<NodeId> low_in = NodesWithInDegree(large, 2, 4);
  ASSERT_FALSE(low_in.empty());
  std::vector<NodeId> large_candidates;
  for (NodeId v = 0; v < large.num_nodes(); v += 17) {
    large_candidates.push_back(v);
  }
  ASSERT_FALSE(NodesWithInDegree(large, 0, 0).empty());
  struct Input {
    const Graph* g;
    NodeId source;
    std::vector<NodeId> candidates;
    bool sparse_level;  // expect a probed level on the search path
  };
  const Input inputs[] = {
      {&small, 1, {5, 9, 14, 33, 59}, false},
      {&large, low_in.front(), large_candidates, true},
  };
  const double sqrt_c = std::sqrt(0.6);
  for (const Input& in : inputs) {
    const Graph& g = *in.g;
    CrashSimOptions corrected = Options(1, 1);
    corrected.mode = RevReachMode::kCorrected;
    corrected.diag_samples = 200;
    const SharedDiagonal diag = CrashSim(corrected).EstimateDiagonal(g);
    const size_t nc = in.candidates.size();
    for (const RevReachMode mode :
         {RevReachMode::kPaper, RevReachMode::kCorrected}) {
      const ReverseReachableTree tree =
          BuildRevReach(g, in.source, 6, 0.6, mode);
      if (in.sparse_level) {
        const ReverseReachableTree::DenseRows& rows = tree.EnsureDenseRows();
        bool searched = false;
        for (int l = 1; l <= tree.max_level(); ++l) {
          searched |= rows.row_off[static_cast<size_t>(l)] == -1 &&
                      tree.Level(l).size() >= 2;
        }
        EXPECT_TRUE(searched) << "no probed level takes the search path";
      }
      const std::span<const double> d = mode == RevReachMode::kCorrected
                                            ? std::span<const double>(*diag)
                                            : std::span<const double>();
      std::vector<double> scalar;
      std::vector<WalkBatchStats> scalar_stats;
      for (const int batch : {1, 32, 256}) {
        const WalkBatchEngine engine(g, tree, d, sqrt_c, 7, /*salt=*/99,
                                     batch);
        std::vector<double> whole(nc, 0.0);
        std::vector<double> split(nc, 0.0);
        std::vector<WalkBatchStats> sw(nc);
        std::vector<WalkBatchStats> ss(nc);
        engine.Run(in.candidates, -1, 0, 600, whole, sw);
        engine.Run(in.candidates, -1, 0, 123, split, ss);
        engine.Run(in.candidates, -1, 123, 300, split, ss);
        engine.Run(in.candidates, -1, 300, 600, split, ss);
        // Each Run folds per candidate in trial order straight into the
        // accumulator, so even the float addition sequence is identical
        // and exact equality is the right assertion.
        EXPECT_EQ(whole, split) << "batch=" << batch;
        for (size_t i = 0; i < nc; ++i) {
          EXPECT_EQ(sw[i].walk_steps, ss[i].walk_steps);
          EXPECT_EQ(sw[i].tree_hits, ss[i].tree_hits);
        }
        if (batch == 1) {
          scalar = whole;
          scalar_stats = sw;
          continue;
        }
        EXPECT_EQ(scalar, whole) << "batch=" << batch;
        for (size_t i = 0; i < nc; ++i) {
          EXPECT_EQ(scalar_stats[i].walk_steps, sw[i].walk_steps)
              << "batch=" << batch << " candidate " << in.candidates[i];
          EXPECT_EQ(scalar_stats[i].tree_hits, sw[i].tree_hits)
              << "batch=" << batch << " candidate " << in.candidates[i];
        }
      }
    }
  }
}


TEST(WalkBatchTest, CandidatesWithoutInNeighboursLeaveOthersBitIdentical) {
  // A candidate with no in-neighbours draws no walks: its mass stays
  // exactly 0.0 and its counts 0, and putting such candidates between
  // others changes no other candidate's mass or counts, on the scalar path
  // (batch 1) and the batched one (batch 256), in both modes.
  Rng rng(47);
  const Graph g = ErdosRenyi(2000, 5000, false, &rng);
  const std::vector<NodeId> dead = NodesWithInDegree(g, 0, 0);
  const std::vector<NodeId> live = NodesWithInDegree(g, 1, 1 << 30);
  ASSERT_GE(dead.size(), 20u);
  std::vector<NodeId> alone;
  std::vector<NodeId> mixed;
  std::vector<size_t> live_slot;  // index in `mixed` of alone[i]
  for (size_t i = 0; i < 20; ++i) {
    alone.push_back(live[i * 37]);
    live_slot.push_back(mixed.size());
    mixed.push_back(live[i * 37]);
    mixed.push_back(dead[i]);
    if (i % 3 == 0) mixed.push_back(dead[i + 1]);
  }
  CrashSimOptions corrected = Options(1, 1);
  corrected.mode = RevReachMode::kCorrected;
  corrected.diag_samples = 50;
  const SharedDiagonal diag = CrashSim(corrected).EstimateDiagonal(g);
  for (const RevReachMode mode :
       {RevReachMode::kPaper, RevReachMode::kCorrected}) {
    const ReverseReachableTree tree = BuildRevReach(g, live[5], 6, 0.6, mode);
    const std::span<const double> d = mode == RevReachMode::kCorrected
                                          ? std::span<const double>(*diag)
                                          : std::span<const double>();
    for (const int batch : {1, 256}) {
      const WalkBatchEngine engine(g, tree, d, std::sqrt(0.6), 7,
                                   /*salt=*/5, batch);
      std::vector<double> alone_mass(alone.size(), 0.0);
      std::vector<WalkBatchStats> alone_stats(alone.size());
      std::vector<double> mixed_mass(mixed.size(), 0.0);
      std::vector<WalkBatchStats> mixed_stats(mixed.size());
      engine.Run(alone, -1, 0, 200, alone_mass, alone_stats);
      engine.Run(mixed, -1, 0, 200, mixed_mass, mixed_stats);
      for (size_t i = 0; i < alone.size(); ++i) {
        const size_t j = live_slot[i];
        EXPECT_EQ(alone_mass[i], mixed_mass[j]) << "batch=" << batch;
        EXPECT_EQ(alone_stats[i].walk_steps, mixed_stats[j].walk_steps);
        EXPECT_EQ(alone_stats[i].tree_hits, mixed_stats[j].tree_hits);
      }
      for (size_t j = 0; j < mixed.size(); ++j) {
        if (g.InDegree(mixed[j]) > 0) continue;
        EXPECT_EQ(mixed_mass[j], 0.0) << "batch=" << batch;
        EXPECT_EQ(mixed_stats[j].walk_steps, 0);
        EXPECT_EQ(mixed_stats[j].tree_hits, 0);
      }
    }
  }
}

}  // namespace
}  // namespace crashsim
