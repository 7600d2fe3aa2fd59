// Concurrency stress suite for the parallel core, sized so a ThreadSanitizer
// build (tools/run_sanitized_tests.sh thread) finishes in tier-1 time. These
// tests earn their keep under TSan — on a plain build they are quick sanity
// checks; instrumented, they are the race detectors for the three places the
// engine shares state across threads:
//
//   1. ParallelFor's persistent pool (nested calls, exception unwinding,
//      concurrent independent callers),
//   2. the sharded metrics registry (concurrent create + increment + read),
//   3. QueryContext's deadline/cancel flags racing a running CrashSim query
//      that writes QueryStats.
//
// std::thread is used directly here on purpose: the point is to attack the
// library from outside ParallelFor's own discipline. (The invariant linter
// confines thread primitives in src/, not tests/.)

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/crashsim.h"
#include "core/query_context.h"
#include "core/query_stats.h"
#include "graph/generators.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/trace.h"

namespace crashsim {
namespace {

TEST(ConcurrencyStressTest, ConcurrentIndependentParallelFors) {
  // Several caller threads share the one persistent pool; each runs its own
  // ParallelFor over a private accumulator array. No iteration may be lost
  // or doubled, whichever worker executes it.
  constexpr int kCallers = 4;
  constexpr int64_t kN = 20000;
  std::vector<std::vector<int64_t>> sums(
      kCallers, std::vector<int64_t>(static_cast<size_t>(kN), 0));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([t, &sums] {
      for (int round = 0; round < 8; ++round) {
        ParallelFor(
            kN,
            [&sums, t](int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) {
                sums[static_cast<size_t>(t)][static_cast<size_t>(i)] += 1;
              }
            },
            /*min_chunk=*/256, /*max_threads=*/4);
      }
    });
  }
  for (std::thread& th : callers) th.join();
  for (int t = 0; t < kCallers; ++t) {
    for (int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(sums[static_cast<size_t>(t)][static_cast<size_t>(i)], 8)
          << "caller " << t << " index " << i;
    }
  }
}

TEST(ConcurrencyStressTest, NestedParallelForRunsInlineWithoutRaces) {
  // Inner ParallelFor calls from pool workers run inline by contract; the
  // combination must still touch every (outer, inner) cell exactly once.
  constexpr int64_t kOuter = 64;
  constexpr int64_t kInner = 512;
  std::vector<std::atomic<int32_t>> cells(
      static_cast<size_t>(kOuter * kInner));
  ParallelFor(
      kOuter,
      [&cells](int64_t begin, int64_t end) {
        for (int64_t o = begin; o < end; ++o) {
          ParallelFor(
              kInner,
              [&cells, o](int64_t ib, int64_t ie) {
                for (int64_t i = ib; i < ie; ++i) {
                  cells[static_cast<size_t>(o * kInner + i)].fetch_add(
                      1, std::memory_order_relaxed);
                }
              },
              /*min_chunk=*/64, /*max_threads=*/2);
        }
      },
      /*min_chunk=*/1, /*max_threads=*/4);
  for (const auto& cell : cells) {
    ASSERT_EQ(cell.load(std::memory_order_relaxed), 1);
  }
}

TEST(ConcurrencyStressTest, ExceptionMixUnderConcurrentCallers) {
  // Throwing chunks unwind while sibling chunks keep running; concurrent
  // caller threads mix throwing and clean ParallelFors on the shared pool.
  // Every call must either complete or rethrow the chunk's exception — and
  // the pool must stay usable afterwards.
  constexpr int kCallers = 4;
  std::atomic<int> caught{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([t, &caught] {
      for (int round = 0; round < 10; ++round) {
        const bool throwing = (t + round) % 2 == 0;
        try {
          ParallelFor(
              4096,
              [throwing](int64_t begin, int64_t end) {
                volatile int64_t sink = 0;
                for (int64_t i = begin; i < end; ++i) sink = sink + i;
                if (throwing && begin == 0) {
                  throw std::runtime_error("stress");
                }
              },
              /*min_chunk=*/128, /*max_threads=*/4);
          ASSERT_FALSE(throwing);
        } catch (const std::runtime_error& e) {
          ASSERT_TRUE(throwing);
          ASSERT_STREQ(e.what(), "stress");
          caught.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : callers) th.join();
  EXPECT_EQ(caught.load(), kCallers * 10 / 2);
  // Pool still healthy after all that unwinding.
  std::atomic<int64_t> total{0};
  ParallelFor(1000, [&total](int64_t begin, int64_t end) {
    total.fetch_add(end - begin, std::memory_order_relaxed);
  }, /*min_chunk=*/64, /*max_threads=*/4);
  EXPECT_EQ(total.load(), 1000);
}

TEST(ConcurrencyStressTest, MetricsRegistryConcurrentMutation) {
  // Concurrent lookup-or-create on overlapping names, wait-free increments,
  // and a Snapshot reader (what every scrape runs) all hammer the global
  // registry at once.
  MetricsRegistry& registry = MetricsRegistry::Global();
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &registry] {
      Counter& mine = registry.counter(
          "stress.counter." + std::to_string(t % 3));
      Gauge& gauge = registry.gauge("stress.gauge");
      FixedHistogram& hist = registry.histogram(
          "stress.hist", ExponentialBuckets(1, 4.0, 6));
      for (int i = 0; i < kOpsPerThread; ++i) {
        mine.Add(1);
        gauge.Set(i);
        hist.Record(i % 1000);
        if (i % 256 == 0) {
          // Re-resolution must return the same stable reference.
          Counter& again = registry.counter(
              "stress.counter." + std::to_string(t % 3));
          ASSERT_EQ(&again, &mine);
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  threads.emplace_back([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.Snapshot();
    }
  });
  for (int t = 0; t < kThreads; ++t) threads[static_cast<size_t>(t)].join();
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();

  int64_t total = 0;
  for (int name = 0; name < 3; ++name) {
    total += registry.counter("stress.counter." + std::to_string(name))
                 .Value();
  }
  EXPECT_EQ(total, int64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(registry.histogram("stress.hist", {}).TotalCount(),
            int64_t{kThreads} * kOpsPerThread);
}

TEST(ConcurrencyStressTest, DeadlineFiringRacesWorkerStatsWrites) {
  // The deadline fires mid-query while the engine (possibly on several pool
  // threads) is working and writing QueryStats through the context. The
  // contract: stats are written only from the querying thread after
  // parallel regions join — so TSan must stay silent and the partial result
  // must obey the anytime semantics. Partial over every node runs the trial
  // loop (SingleSource would sweep, which has no partial answer).
  Rng rng(5);
  const Graph g = ErdosRenyi(300, 1800, false, &rng);
  std::vector<NodeId> all(static_cast<size_t>(g.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  CrashSimOptions opt;
  opt.mc.c = 0.6;
  opt.mc.trials_override = 200000;  // far more than a few ms allows
  opt.mc.seed = 11;
  opt.num_threads = 4;
  CrashSim algo(opt);
  ASSERT_TRUE(algo.Bind(&g).ok());

  for (int round = 0; round < 4; ++round) {
    QueryContext ctx(std::chrono::milliseconds(20 + 10 * round));
    QueryStats stats;
    ctx.set_stats(&stats);
    const PartialResult result = algo.Partial(7, all, &ctx);
    ASSERT_TRUE(result.status.ok() ||
                result.status.code() == StatusCode::kDeadlineExceeded);
    EXPECT_EQ(stats.trials_run, result.trials_done);
  }
}

TEST(ConcurrencyStressTest, CancellationRacesRunningQuery) {
  // Cancel() lands from another thread at a random point in the query. The
  // query must return kCancelled (or OK if it won the race) with coherent
  // partial scores, and the canceller must never trip a race. Partial over
  // every node runs the anytime trial loop.
  Rng rng(6);
  const Graph g = ErdosRenyi(250, 1500, false, &rng);
  std::vector<NodeId> all(static_cast<size_t>(g.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  CrashSimOptions opt;
  opt.mc.c = 0.6;
  opt.mc.trials_override = 100000;
  opt.mc.seed = 23;
  opt.num_threads = 4;
  CrashSim algo(opt);
  ASSERT_TRUE(algo.Bind(&g).ok());

  for (int round = 0; round < 4; ++round) {
    QueryContext ctx;
    QueryStats stats;
    ctx.set_stats(&stats);
    std::thread canceller([&ctx, round] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1 + round * 5));
      ctx.Cancel();
    });
    const PartialResult result = algo.Partial(3, all, &ctx);
    canceller.join();
    ASSERT_TRUE(result.status.ok() ||
                result.status.code() == StatusCode::kCancelled)
        << result.status.ToString();
    if (!result.status.ok()) {
      EXPECT_LT(result.trials_done, result.trials_target);
    }
    EXPECT_EQ(stats.trials_run, result.trials_done);
    EXPECT_TRUE(ctx.cancelled());
  }
}

TEST(ConcurrencyStressTest, ParallelQueriesShareEngineReadOnly) {
  // Distinct CrashSim instances bound to the same immutable Graph run
  // queries from several threads at once: the graph and the pool are shared,
  // everything mutable is per-instance, so results must match a sequential
  // run of the same seeds.
  Rng rng(8);
  const Graph g = ErdosRenyi(200, 1200, false, &rng);
  auto make_options = [](int thread_idx) {
    CrashSimOptions opt;
    opt.mc.c = 0.6;
    opt.mc.trials_override = 800;
    opt.mc.seed = 100 + static_cast<uint64_t>(thread_idx);
    opt.num_threads = 2;
    return opt;
  };

  constexpr int kQueryThreads = 3;
  std::vector<std::vector<double>> concurrent(kQueryThreads);
  std::vector<std::thread> threads;
  threads.reserve(kQueryThreads);
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([t, &g, &concurrent, &make_options] {
      CrashSim algo(make_options(t));
      ASSERT_TRUE(algo.Bind(&g).ok());
      const PartialResult r =
          algo.SingleSource(static_cast<NodeId>(t), nullptr);
      concurrent[static_cast<size_t>(t)] = r.scores;
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kQueryThreads; ++t) {
    CrashSim algo(make_options(t));
    ASSERT_TRUE(algo.Bind(&g).ok());
    const PartialResult r = algo.SingleSource(static_cast<NodeId>(t), nullptr);
    EXPECT_EQ(concurrent[static_cast<size_t>(t)], r.scores)
        << "thread " << t;
  }
}

TEST(ConcurrencyStressTest, TracingRecordersRaceIntoOneSmallCollector) {
  // Recorder threads share one collector (spans + flow events) and keep
  // appending well past its capacity. Under TSan this exercises the
  // lock-free claim protocol: fetch_add hands every slot to exactly one
  // writer, claims past capacity only count, and the join publishes every
  // written slot to the exporting thread.
  constexpr int kRecorders = 4;
  constexpr int kSpansPerRecorder = 2000;
  RequestTrace trace(/*request_id=*/1, /*capacity=*/1024);
  std::vector<std::thread> threads;
  threads.reserve(kRecorders);
  for (int t = 0; t < kRecorders; ++t) {
    threads.emplace_back([&trace] {
      const TraceRequestScope scope(&trace);
      for (int i = 0; i < kSpansPerRecorder; ++i) {
        TRACE_SPAN("stress.outer");
        TraceFlowOut(NewTraceFlowId());
        {
          TRACE_SPAN("stress.inner");
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // 5 events per iteration against 1024 slots: every claim past the
  // capacity was dropped and counted, none lost.
  EXPECT_EQ(trace.size(), trace.capacity());
  EXPECT_EQ(trace.dropped(),
            int64_t{kRecorders} * kSpansPerRecorder * 5 -
                static_cast<int64_t>(trace.capacity()));
  // Writers have joined, so exporting is safe and must stay balanced even
  // though overflow cut every thread's sequence mid-span.
  const std::string json = ExportChromeTrace(trace);
  const auto count = [&json](const std::string& needle) {
    int n = 0;
    for (size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\": \"B\""), count("\"ph\": \"E\""));
  const std::string table = ExportTraceAggregateTable(trace);
  EXPECT_NE(table.find("stress.outer"), std::string::npos);
  EXPECT_NE(table.find("dropped"), std::string::npos);
}

}  // namespace
}  // namespace crashsim
