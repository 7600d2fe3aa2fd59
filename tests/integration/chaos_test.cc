// Chaos tier (tier2): whole query mixes driven through the QueryExecutor
// with seeded failpoints armed. The properties under test are the PR's
// robustness contract end to end:
//
//   1. No crash, no deadlock, no sanitizer report — faults surface as clean
//      Statuses from the documented taxonomy (docs/ROBUSTNESS.md).
//   2. Queries the chaos did not touch (finished OK, zero retries, not
//      degraded) are bit-identical to a fault-free baseline.
//   3. At 4x overload the executor sheds or degrades — it never aborts.
//
// Determinism: the per-site fire pattern is a pure function of (seed, site,
// hit index), so a given seed replays the same fault schedule; the thread
// interleaving only decides which query absorbs each fire. The suite runs
// the built-in seeds {7, 21, 42} unless CRASHSIM_CHAOS_SEED narrows it to
// one (the CI chaos lane's matrix axis).
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/crashsim.h"
#include "core/crashsim_t.h"
#include "core/executor.h"
#include "core/query_context.h"
#include "graph/generators.h"
#include "graph/temporal_generators.h"
#include "graph/temporal_graph.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/status.h"

namespace crashsim {
namespace {

std::vector<uint64_t> ChaosSeeds() {
  if (const char* env = std::getenv("CRASHSIM_CHAOS_SEED")) {
    return {static_cast<uint64_t>(std::strtoull(env, nullptr, 10))};
  }
  return {7, 21, 42};
}

Graph ChaosGraph() {
  Rng rng(99);
  return ErdosRenyi(300, 1500, /*undirected=*/false, &rng);
}

// Every node of g. Partial over it runs the trial loop whose faults,
// rollback and degradation these tests drive; SingleSource sweeps instead
// (SweepFaultsAnswerNothingOrTheBaseline).
std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> all(static_cast<size_t>(g.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

CrashSimOptions EngineOptions(uint64_t seed) {
  CrashSimOptions opt;
  opt.mc.c = 0.6;
  opt.mc.trials_override = 80;
  opt.mc.seed = seed;
  return opt;
}

// Query q of client c: a fresh engine per query so each (client, query)
// pair is independent of what chaos did to earlier queries — that is what
// makes "unaffected => bit-identical" checkable.
uint64_t QuerySeed(int client, int q) {
  return 1000 + static_cast<uint64_t>(client) * 100 +
         static_cast<uint64_t>(q);
}
NodeId QuerySource(int client, int q, NodeId n) {
  return static_cast<NodeId>((client * 31 + q * 7) % n);
}

constexpr int kClients = 4;
constexpr int kQueriesPerClient = 6;

// The status taxonomy a chaos query may legally end with.
bool IsDocumentedOutcome(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
    case StatusCode::kUnavailable:        // transient fault, retries spent
    case StatusCode::kResourceExhausted:  // shed or over budget
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
      return true;
    default:
      return false;
  }
}

TEST(ChaosTest, ConcurrentMixSurvivesInjectedFaultsWithCleanTaxonomy) {
  const Graph g = ChaosGraph();

  // Fault-free baseline, computed once: the exact scores every (client,
  // query) pair produces when nothing interferes.
  std::vector<std::vector<PartialResult>> baseline(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int q = 0; q < kQueriesPerClient; ++q) {
      CrashSim engine(EngineOptions(QuerySeed(c, q)));
      ASSERT_TRUE(engine.Bind(&g).ok());
      QueryContext ctx;
      baseline[static_cast<size_t>(c)].push_back(
          engine.Partial(QuerySource(c, q, g.num_nodes()), AllNodes(g),
                         &ctx));
      ASSERT_TRUE(baseline[static_cast<size_t>(c)].back().status.ok());
    }
  }

  for (const uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    FailpointScope chaos(seed);
    FailpointSpec transient;
    transient.action = FailpointAction::kError;
    transient.code = StatusCode::kUnavailable;
    transient.probability = 0.10;
    ASSERT_TRUE(ConfigureFailpoint("crashsim.trial_block", transient).ok());
    FailpointSpec build_fault = transient;
    build_fault.probability = 0.05;
    ASSERT_TRUE(ConfigureFailpoint("rev_reach.build", build_fault).ok());
    FailpointSpec admit_fault = transient;
    admit_fault.probability = 0.05;
    ASSERT_TRUE(ConfigureFailpoint("executor.admit", admit_fault).ok());
    FailpointSpec latency;
    latency.action = FailpointAction::kLatency;
    latency.latency_ms = 1;
    latency.probability = 0.10;
    ASSERT_TRUE(ConfigureFailpoint("rev_reach.alloc", latency).ok());

    ExecutorOptions eopt;
    eopt.max_concurrent = 2;
    eopt.max_queue = 2 * kClients * kQueriesPerClient;  // no shed pressure
    eopt.degrade_at = 0.0;  // keep trial budgets exact for the parity check
    eopt.max_retries = 2;
    QueryExecutor executor(eopt);

    std::vector<std::vector<QueryOutcome>> outcomes(
        kClients, std::vector<QueryOutcome>(kQueriesPerClient));
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int q = 0; q < kQueriesPerClient; ++q) {
          CrashSim engine(EngineOptions(QuerySeed(c, q)));
          ASSERT_TRUE(engine.Bind(&g).ok());
          const NodeId source = QuerySource(c, q, g.num_nodes());
          QueryRequest request;
          request.run = [&](QueryContext* ctx) {
            return engine.Partial(source, AllNodes(g), ctx);
          };
          outcomes[static_cast<size_t>(c)][static_cast<size_t>(q)] =
              executor.Execute(request);
        }
      });
    }
    for (std::thread& t : clients) t.join();

    int ok_count = 0;
    int unaffected = 0;
    for (int c = 0; c < kClients; ++c) {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const QueryOutcome& outcome =
            outcomes[static_cast<size_t>(c)][static_cast<size_t>(q)];
        const Status& status = outcome.result.status;
        EXPECT_TRUE(IsDocumentedOutcome(status.code()))
            << "client " << c << " query " << q << ": " << status;
        if (!status.ok()) continue;
        ++ok_count;
        if (outcome.retries > 0 || outcome.degraded) continue;
        // Untouched by the chaos: must match the baseline bit for bit.
        ++unaffected;
        const PartialResult& expected =
            baseline[static_cast<size_t>(c)][static_cast<size_t>(q)];
        EXPECT_EQ(outcome.result.trials_done, expected.trials_done);
        EXPECT_EQ(outcome.result.scores, expected.scores)
            << "client " << c << " query " << q;
      }
    }
    // Liveness: the mix must not collapse — with p = 0.10 on the trial loop
    // and 2 retries per query the overwhelming majority completes.
    EXPECT_GT(ok_count, kClients * kQueriesPerClient / 2);
    EXPECT_GT(unaffected, 0);
    // The chaos actually ran: at least one armed site was exercised.
    EXPECT_GT(FailpointHits("crashsim.trial_block"), 0);
  }
}

TEST(ChaosTest, FourTimesOverloadShedsOrDegradesButNeverAborts) {
  const Graph g = ChaosGraph();

  ExecutorOptions eopt;
  eopt.max_concurrent = 2;
  eopt.max_queue = 2;
  eopt.default_deadline_ms = 2000;
  eopt.degrade_at = 1.0;
  eopt.degrade_min_fraction = 0.25;
  QueryExecutor executor(eopt);

  // 4x overload: 16 clients against 2 slots + 2 queue seats, all at once.
  constexpr int kOverloadClients = 16;
  std::vector<QueryOutcome> outcomes(kOverloadClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kOverloadClients; ++c) {
    clients.emplace_back([&, c] {
      CrashSim engine(EngineOptions(2000 + static_cast<uint64_t>(c)));
      ASSERT_TRUE(engine.Bind(&g).ok());
      const NodeId source = static_cast<NodeId>(c % g.num_nodes());
      QueryRequest request;
      request.run = [&](QueryContext* ctx) {
        return engine.Partial(source, AllNodes(g), ctx);
      };
      outcomes[static_cast<size_t>(c)] = executor.Execute(request);
    });
  }
  for (std::thread& t : clients) t.join();

  int completed = 0, shed = 0, degraded = 0;
  for (const QueryOutcome& outcome : outcomes) {
    const StatusCode code = outcome.result.status.code();
    EXPECT_TRUE(code == StatusCode::kOk ||
                code == StatusCode::kResourceExhausted ||
                code == StatusCode::kDeadlineExceeded)
        << outcome.result.status;
    if (code == StatusCode::kOk) {
      ++completed;
      // A degraded answer still reports its (looser) achieved bound.
      if (outcome.degraded) {
        ++degraded;
        EXPECT_LT(outcome.trial_fraction, 1.0);
        EXPECT_GE(outcome.trial_fraction, eopt.degrade_min_fraction);
        EXPECT_LT(outcome.result.trials_done,
                  EngineOptions(0).mc.trials_override);
      }
    } else {
      ++shed;
    }
  }
  // The executor's books must balance: every submission accounted for.
  const QueryExecutor::Stats stats = executor.stats();
  EXPECT_EQ(stats.submitted, kOverloadClients);
  EXPECT_EQ(stats.completed + stats.failed +
                stats.shed_queue_full + stats.shed_deadline +
                stats.expired_in_queue + stats.cancelled_in_queue,
            kOverloadClients);
  EXPECT_EQ(completed + shed, kOverloadClients);
  EXPECT_GT(completed, 0);  // overload must not starve everyone
  // With 16 arrivals into 4 seats, someone was shed or someone ran
  // degraded; at 4x it is overwhelmingly both.
  EXPECT_GT(shed + degraded, 0);
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.queued, 0);
}

TEST(ChaosTest, SnapshotFaultCutsTemporalAnswerCleanly) {
  // Single-threaded determinism check on the CrashSim-T snapshot loop: the
  // begin snapshot is answered before the advance loop, the armed
  // crashsim_t.snapshot site then fires on the first advance, and the
  // answer carries the fault's Status plus the exact prefix interval.
  Rng rng(5);
  const Graph base = ErdosRenyi(60, 240, /*undirected=*/true, &rng);
  ChurnOptions churn;
  churn.num_snapshots = 6;
  const TemporalGraph tg = EvolveWithChurn(base, churn, &rng);

  CrashSimTOptions opt;
  opt.crashsim.mc.trials_override = 50;
  opt.crashsim.mc.seed = 17;
  TemporalQuery query;
  query.kind = TemporalQueryKind::kThreshold;
  query.source = 1;
  query.begin_snapshot = 0;
  query.end_snapshot = tg.num_snapshots() - 1;
  // Low enough that the begin snapshot keeps a non-empty candidate set (the
  // advance loop — and the armed failpoint in it — only runs while
  // candidates remain); the exact survivors depend on the Monte-Carlo
  // stream contract, not on this test.
  query.theta = 0.005;

  for (const uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    FailpointScope chaos(seed);
    FailpointSpec spec;
    spec.action = FailpointAction::kError;
    spec.code = StatusCode::kUnavailable;
    // Deterministic placement: every hit fires, capped after the first.
    spec.max_fires = 1;
    ASSERT_TRUE(ConfigureFailpoint("crashsim_t.snapshot", spec).ok());

    CrashSimT engine(opt);
    QueryContext ctx;
    const TemporalAnswer answer = engine.Answer(tg, query, &ctx);
    EXPECT_EQ(answer.status.code(), StatusCode::kUnavailable);
    // The fault hit the advance to snapshot 1 and named it in the context.
    EXPECT_NE(answer.status.message().find("snapshot 1"), std::string::npos)
        << answer.status;
    EXPECT_FALSE(answer.complete());
    EXPECT_EQ(answer.stats.snapshots_processed, 1);
  }
}

TEST(ChaosTest, WorkerFaultInParallelTrialBlockKeepsPartialExact) {
  // parallel.worker throws StatusException inside the pool; the engine must
  // convert it back to a Status at the ParallelFor boundary and roll the
  // trial block back so the partial answer is the exact result of
  // trials_done trials.
  const Graph g = ChaosGraph();
  CrashSimOptions opt = EngineOptions(33);
  opt.num_threads = 4;
  opt.mc.trials_override = 512;  // several blocks before the cap

  int seeds_faulted = 0;
  for (const uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    FailpointScope chaos(seed);
    FailpointSpec spec;
    spec.action = FailpointAction::kError;
    spec.code = StatusCode::kUnavailable;
    spec.probability = 0.25;
    ASSERT_TRUE(ConfigureFailpoint("parallel.worker", spec).ok());

    CrashSim engine(opt);
    ASSERT_TRUE(engine.Bind(&g).ok());
    QueryContext ctx;
    const PartialResult partial = engine.Partial(4, AllNodes(g), &ctx);
    if (partial.status.ok()) continue;  // this seed spared every worker
    ++seeds_faulted;
    EXPECT_EQ(partial.status.code(), StatusCode::kUnavailable);
    ASSERT_LT(partial.trials_done, opt.mc.trials_override);
    if (partial.trials_done == 0) continue;

    // Replay fault-free with exactly trials_done trials: bit-identical.
    DisableFailpoints();
    CrashSimOptions replay_opt = opt;
    replay_opt.mc.trials_override = partial.trials_done;
    CrashSim replay(replay_opt);
    ASSERT_TRUE(replay.Bind(&g).ok());
    QueryContext fresh;
    const PartialResult full = replay.Partial(4, AllNodes(g), &fresh);
    ASSERT_TRUE(full.status.ok());
    EXPECT_EQ(partial.scores, full.scores);
  }
  // Guard against a vacuous pass: with p = 0.25 across ~13 trial blocks at
  // least one of the built-in seeds must inject a fault (a single-seed
  // CRASHSIM_CHAOS_SEED override may legitimately be spared).
  if (std::getenv("CRASHSIM_CHAOS_SEED") == nullptr) {
    EXPECT_GT(seeds_faulted, 0);
  }
}

TEST(ChaosTest, BatchedWalkEngineRollsBackFaultedBlocksExactly) {
  // Same rollback contract with the batched walk engine at 256 walks per
  // tile and BOTH fault surfaces armed at once: crashsim.trial_block fires
  // at block granularity, parallel.worker inside the pool mid-block. A
  // faulted block under batching discards whole tiles — the partial answer
  // must still be the exact result of trials_done complete trials, proven
  // by a bit-identical fault-free replay with trials_override = trials_done.
  const Graph g = ChaosGraph();
  CrashSimOptions opt = EngineOptions(47);
  opt.num_threads = 4;
  opt.batch_size = 256;
  opt.mc.trials_override = 512;

  int seeds_faulted = 0;
  for (const uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    FailpointScope chaos(seed);
    FailpointSpec block_spec;
    block_spec.action = FailpointAction::kError;
    block_spec.code = StatusCode::kUnavailable;
    block_spec.probability = 0.15;
    ASSERT_TRUE(ConfigureFailpoint("crashsim.trial_block", block_spec).ok());
    FailpointSpec worker_spec;
    worker_spec.action = FailpointAction::kError;
    worker_spec.code = StatusCode::kUnavailable;
    worker_spec.probability = 0.15;
    ASSERT_TRUE(ConfigureFailpoint("parallel.worker", worker_spec).ok());

    CrashSim engine(opt);
    ASSERT_TRUE(engine.Bind(&g).ok());
    QueryContext ctx;
    const PartialResult partial = engine.Partial(4, AllNodes(g), &ctx);
    if (partial.status.ok()) continue;  // this seed spared every surface
    ++seeds_faulted;
    EXPECT_EQ(partial.status.code(), StatusCode::kUnavailable);
    ASSERT_LT(partial.trials_done, opt.mc.trials_override);
    if (partial.trials_done == 0) continue;

    DisableFailpoints();
    CrashSimOptions replay_opt = opt;
    replay_opt.mc.trials_override = partial.trials_done;
    CrashSim replay(replay_opt);
    ASSERT_TRUE(replay.Bind(&g).ok());
    QueryContext fresh;
    const PartialResult full = replay.Partial(4, AllNodes(g), &fresh);
    ASSERT_TRUE(full.status.ok());
    EXPECT_EQ(partial.scores, full.scores);
  }
  if (std::getenv("CRASHSIM_CHAOS_SEED") == nullptr) {
    EXPECT_GT(seeds_faulted, 0);
  }
}

TEST(ChaosTest, SweepFaultsAnswerNothingOrTheBaseline) {
  // The sweep that answers full single-source queries has two fault
  // surfaces: crashsim.sweep_level before each level and parallel.worker
  // inside the pool. A faulted sweep has no partial answer to give, so it
  // returns the fault's Status with no scores; one the faults spared equals
  // the fault-free sweep bit for bit.
  const Graph g = ChaosGraph();
  CrashSimOptions opt = EngineOptions(51);
  opt.num_threads = 4;
  const Graph big = [] {
    Rng rng(98);
    // Over ParallelFor's 1024-node chunk, so the pool takes shards.
    return ErdosRenyi(3000, 15000, /*undirected=*/false, &rng);
  }();
  for (const Graph* graph : {&g, &big}) {
    CrashSim engine(opt);
    ASSERT_TRUE(engine.Bind(graph).ok());
    const std::vector<double> baseline = engine.SingleSource(4);
    int faulted = 0;
    for (const uint64_t seed : ChaosSeeds()) {
      SCOPED_TRACE("chaos seed " + std::to_string(seed));
      FailpointScope chaos(seed);
      FailpointSpec spec;
      spec.action = FailpointAction::kError;
      spec.code = StatusCode::kUnavailable;
      spec.probability = 0.05;
      ASSERT_TRUE(ConfigureFailpoint("crashsim.sweep_level", spec).ok());
      ASSERT_TRUE(ConfigureFailpoint("parallel.worker", spec).ok());
      for (int q = 0; q < 4; ++q) {
        QueryContext ctx;
        const PartialResult r = engine.SingleSource(4, &ctx);
        EXPECT_EQ(r.trials_done, 0);
        if (r.status.ok()) {
          EXPECT_EQ(r.scores, baseline);
        } else {
          ++faulted;
          EXPECT_EQ(r.status.code(), StatusCode::kUnavailable) << r.status;
          EXPECT_TRUE(r.scores.empty());
        }
      }
      EXPECT_GT(FailpointHits("crashsim.sweep_level"), 0);
    }
    if (std::getenv("CRASHSIM_CHAOS_SEED") == nullptr) {
      EXPECT_GT(faulted, 0);
    }
  }
}

}  // namespace
}  // namespace crashsim
