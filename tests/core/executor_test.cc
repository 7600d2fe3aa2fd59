#include "core/executor.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/crashsim.h"
#include "graph/generators.h"
#include "util/memory_budget.h"
#include "util/rng.h"
#include "util/status.h"

namespace crashsim {
namespace {

using std::chrono::milliseconds;

PartialResult OkResult() {
  PartialResult r;
  r.scores = {1.0};
  r.trials_done = r.trials_target = 1;
  return r;
}

// Spin until `pred` holds (bounded); the executor's admission state is only
// observable through stats(), so tests synchronise on it.
template <typename Pred>
bool WaitFor(Pred pred, int timeout_ms = 5000) {
  const auto give_up =
      std::chrono::steady_clock::now() + milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

TEST(ExecutorOptionsTest, ValidateRejectsBadValues) {
  ExecutorOptions opt;
  opt.max_concurrent = 0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = ExecutorOptions{};
  opt.max_queue = -1;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = ExecutorOptions{};
  opt.degrade_min_fraction = 0.0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = ExecutorOptions{};
  opt.degrade_at = 0.0;  // disables degradation; the floor stops mattering
  opt.degrade_min_fraction = 0.0;
  EXPECT_TRUE(opt.Validate().ok());
  opt = ExecutorOptions{};
  opt.max_retries = -1;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = ExecutorOptions{};
  opt.max_retries = ExecutorOptions::kMaxRetriesLimit + 1;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = ExecutorOptions{};
  opt.max_retries = ExecutorOptions::kMaxRetriesLimit;
  EXPECT_TRUE(opt.Validate().ok());
  opt = ExecutorOptions{};
  opt.memory_budget_bytes = -1;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ExecutorTest, RunsAQueryAndReportsCompletion) {
  QueryExecutor executor(ExecutorOptions{});
  QueryRequest request;
  request.run = [](QueryContext*) { return OkResult(); };
  const QueryOutcome outcome = executor.Execute(request);
  EXPECT_TRUE(outcome.result.status.ok());
  EXPECT_TRUE(outcome.admitted);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_EQ(outcome.retries, 0);
  const QueryExecutor::Stats stats = executor.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.running, 0);
}

TEST(ExecutorTest, EmptyRunIsInvalidArgument) {
  QueryExecutor executor(ExecutorOptions{});
  const QueryOutcome outcome = executor.Execute(QueryRequest{});
  EXPECT_EQ(outcome.result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(outcome.admitted);
}

TEST(ExecutorTest, ShedsWithResourceExhaustedWhenQueueIsFull) {
  ExecutorOptions opt;
  opt.max_concurrent = 1;
  opt.max_queue = 0;
  QueryExecutor executor(opt);

  std::atomic<bool> release{false};
  QueryRequest blocker;
  blocker.run = [&](QueryContext*) {
    while (!release.load()) std::this_thread::sleep_for(milliseconds(1));
    return OkResult();
  };
  std::thread holder([&] { (void)executor.Execute(blocker); });
  ASSERT_TRUE(WaitFor([&] { return executor.stats().running == 1; }));

  QueryRequest request;
  request.run = [](QueryContext*) { return OkResult(); };
  const QueryOutcome outcome = executor.Execute(request);
  EXPECT_EQ(outcome.result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(outcome.admitted);
  EXPECT_EQ(executor.stats().shed_queue_full, 1);

  release.store(true);
  holder.join();
  EXPECT_EQ(executor.stats().completed, 1);
}

TEST(ExecutorTest, QueuedQueryExpiresAtItsDeadline) {
  ExecutorOptions opt;
  opt.max_concurrent = 1;
  opt.max_queue = 4;
  QueryExecutor executor(opt);

  std::atomic<bool> release{false};
  QueryRequest blocker;
  blocker.run = [&](QueryContext*) {
    while (!release.load()) std::this_thread::sleep_for(milliseconds(1));
    return OkResult();
  };
  std::thread holder([&] { (void)executor.Execute(blocker); });
  ASSERT_TRUE(WaitFor([&] { return executor.stats().running == 1; }));

  QueryContext ctx(milliseconds(30));
  QueryRequest request;
  request.ctx = &ctx;
  request.run = [](QueryContext*) { return OkResult(); };
  const QueryOutcome outcome = executor.Execute(request);
  EXPECT_EQ(outcome.result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(outcome.admitted);
  EXPECT_EQ(executor.stats().expired_in_queue, 1);

  release.store(true);
  holder.join();
}

TEST(ExecutorTest, QueuedQueryHonoursCancel) {
  ExecutorOptions opt;
  opt.max_concurrent = 1;
  opt.max_queue = 4;
  QueryExecutor executor(opt);

  std::atomic<bool> release{false};
  QueryRequest blocker;
  blocker.run = [&](QueryContext*) {
    while (!release.load()) std::this_thread::sleep_for(milliseconds(1));
    return OkResult();
  };
  std::thread holder([&] { (void)executor.Execute(blocker); });
  ASSERT_TRUE(WaitFor([&] { return executor.stats().running == 1; }));

  QueryContext ctx;
  QueryRequest request;
  request.ctx = &ctx;
  request.run = [](QueryContext*) { return OkResult(); };
  QueryOutcome outcome;
  std::thread waiter([&] { outcome = executor.Execute(request); });
  ASSERT_TRUE(WaitFor([&] { return executor.stats().queued == 1; }));
  ctx.Cancel();
  waiter.join();
  EXPECT_EQ(outcome.result.status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(outcome.admitted);
  EXPECT_EQ(executor.stats().cancelled_in_queue, 1);

  release.store(true);
  holder.join();
}

TEST(ExecutorTest, ShedsAheadOfTimeWhenProjectedWaitExceedsDeadline) {
  ExecutorOptions opt;
  opt.max_concurrent = 1;
  opt.max_queue = 8;
  QueryExecutor executor(opt);

  // Seed the run-time EWMA with one ~60 ms completion.
  QueryRequest slow;
  slow.run = [](QueryContext*) {
    std::this_thread::sleep_for(milliseconds(60));
    return OkResult();
  };
  ASSERT_TRUE(executor.Execute(slow).result.status.ok());

  // Occupy the slot so the next arrival must consider queueing.
  std::atomic<bool> release{false};
  QueryRequest blocker;
  blocker.run = [&](QueryContext*) {
    while (!release.load()) std::this_thread::sleep_for(milliseconds(1));
    return OkResult();
  };
  std::thread holder([&] { (void)executor.Execute(blocker); });
  ASSERT_TRUE(WaitFor([&] { return executor.stats().running == 1; }));

  // Projected wait ~60 ms >> 5 ms of slack: shed immediately, without
  // blocking until the deadline actually expires.
  QueryContext ctx(milliseconds(5));
  QueryRequest request;
  request.ctx = &ctx;
  request.run = [](QueryContext*) { return OkResult(); };
  const QueryOutcome outcome = executor.Execute(request);
  EXPECT_EQ(outcome.result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(outcome.admitted);
  EXPECT_EQ(executor.stats().shed_deadline, 1);

  release.store(true);
  holder.join();
}

TEST(ExecutorTest, DegradesTrialBudgetUnderLoad) {
  ExecutorOptions opt;
  opt.max_concurrent = 1;
  opt.max_queue = 8;
  opt.degrade_at = 1.0;  // any backlog beyond the bare slot degrades
  opt.degrade_min_fraction = 0.25;
  QueryExecutor executor(opt);

  std::atomic<bool> release{false};
  QueryRequest blocker;
  blocker.run = [&](QueryContext*) {
    while (!release.load()) std::this_thread::sleep_for(milliseconds(1));
    return OkResult();
  };
  std::thread holder([&] { (void)executor.Execute(blocker); });
  ASSERT_TRUE(WaitFor([&] { return executor.stats().running == 1; }));

  // Two queries queue behind the blocker; the first one admitted still sees
  // the other waiting, so its load (running + queued) / max_concurrent = 2
  // yields trial fraction 1/2.
  std::atomic<int> degraded_count{0};
  std::vector<double> seen_fractions(2, -1.0);
  std::vector<std::thread> waiters;
  for (int i = 0; i < 2; ++i) {
    waiters.emplace_back([&, i] {
      QueryRequest request;
      request.run = [&, i](QueryContext* ctx) {
        seen_fractions[static_cast<size_t>(i)] = ctx->trial_fraction();
        return OkResult();
      };
      const QueryOutcome outcome = executor.Execute(request);
      if (outcome.degraded) degraded_count.fetch_add(1);
    });
  }
  ASSERT_TRUE(WaitFor([&] { return executor.stats().queued == 2; }));
  release.store(true);
  holder.join();
  for (std::thread& t : waiters) t.join();

  // At least the first queued query to win a slot observed the backlog.
  EXPECT_GE(degraded_count.load(), 1);
  EXPECT_GE(executor.stats().degraded, 1);
  // Degraded fraction flows into the context the engine sees, and is
  // restored afterwards (the next run would otherwise inherit it).
  bool saw_degraded_fraction = false;
  for (const double f : seen_fractions) {
    ASSERT_GE(f, opt.degrade_min_fraction);
    if (f < 1.0) saw_degraded_fraction = true;
  }
  EXPECT_TRUE(saw_degraded_fraction);
}

TEST(ExecutorTest, RetriesTransientFailuresUntilSuccess) {
  ExecutorOptions opt;
  opt.max_retries = 3;
  QueryExecutor executor(opt);
  int attempts = 0;
  QueryRequest request;
  request.run = [&](QueryContext*) {
    ++attempts;
    if (attempts <= 2) {
      PartialResult r;
      r.status = UnavailableError("transient fault");
      return r;
    }
    return OkResult();
  };
  const QueryOutcome outcome = executor.Execute(request);
  EXPECT_TRUE(outcome.result.status.ok());
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(outcome.retries, 2);
  EXPECT_EQ(executor.stats().retries, 2);
  EXPECT_EQ(executor.stats().completed, 1);
}

TEST(ExecutorTest, ExhaustedRetryBudgetSurfacesUnavailable) {
  ExecutorOptions opt;
  opt.max_retries = 2;
  QueryExecutor executor(opt);
  int attempts = 0;
  QueryRequest request;
  request.run = [&](QueryContext*) {
    ++attempts;
    PartialResult r;
    r.status = UnavailableError("still down");
    return r;
  };
  const QueryOutcome outcome = executor.Execute(request);
  EXPECT_EQ(outcome.result.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(attempts, 3);  // initial + 2 retries
  EXPECT_EQ(outcome.retries, 2);
  EXPECT_EQ(executor.stats().failed, 1);
}

// Regression: the backoff used to be computed as `retry_backoff_ms <<
// attempt`, a left shift that is undefined behaviour once attempt >= 63 —
// reachable because max_retries is user-configurable. With 100 retries and a
// zero base backoff the old code shifted by up to 100 (UBSan-visible); the
// doubling loop must stay defined and the run must not sleep at all.
TEST(ExecutorTest, HundredRetriesWithZeroBackoffIsDefinedAndFast) {
  ExecutorOptions opt;
  opt.max_retries = 100;
  opt.retry_backoff_ms = 0;
  QueryExecutor executor(opt);
  int attempts = 0;
  QueryRequest request;
  request.run = [&](QueryContext*) {
    ++attempts;
    PartialResult r;
    r.status = UnavailableError("always down");
    return r;
  };
  const auto start = std::chrono::steady_clock::now();
  const QueryOutcome outcome = executor.Execute(request);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(outcome.result.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(attempts, 101);  // initial + 100 retries
  EXPECT_EQ(outcome.retries, 100);
  EXPECT_LT(elapsed, 2.0);  // zero backoff: no 100 ms sleeps crept in
}

// With a non-zero base the doubling saturates at the 100 ms cap instead of
// overflowing, and the deadline clamp keeps the total sleep inside the
// query's slack: 100 retries at base 64 ms would otherwise sleep ~10 s.
TEST(ExecutorTest, BackoffSaturatesAtCapUnderDeadline) {
  ExecutorOptions opt;
  opt.max_retries = 100;
  opt.retry_backoff_ms = 64;  // doubles past the cap within two attempts
  QueryExecutor executor(opt);
  QueryContext ctx(milliseconds(80));
  QueryRequest request;
  request.ctx = &ctx;
  int attempts = 0;
  request.run = [&](QueryContext*) {
    ++attempts;
    PartialResult r;
    r.status = UnavailableError("always down");
    return r;
  };
  const auto start = std::chrono::steady_clock::now();
  const QueryOutcome outcome = executor.Execute(request);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(outcome.result.status.code(), StatusCode::kUnavailable);
  EXPECT_GE(attempts, 2);  // at least one backed-off retry actually ran
  EXPECT_LT(elapsed, 2.0);  // clamped to the 80 ms slack, not 100 * ~100 ms
}

TEST(ExecutorTest, NonTransientFailuresAreNotRetried) {
  ExecutorOptions opt;
  opt.max_retries = 5;
  QueryExecutor executor(opt);
  int attempts = 0;
  QueryRequest request;
  request.run = [&](QueryContext*) {
    ++attempts;
    PartialResult r;
    r.status = InvalidArgumentError("bad query");
    return r;
  };
  const QueryOutcome outcome = executor.Execute(request);
  EXPECT_EQ(outcome.result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(outcome.retries, 0);
}

TEST(ExecutorTest, StatusExceptionFromRunBecomesItsStatus) {
  ExecutorOptions opt;
  opt.max_retries = 0;
  QueryExecutor executor(opt);
  QueryRequest request;
  request.run = [](QueryContext*) -> PartialResult {
    throw StatusException(UnavailableError("hoisted from a parallel region"));
  };
  const QueryOutcome outcome = executor.Execute(request);
  EXPECT_EQ(outcome.result.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(outcome.result.scores.empty());
}

TEST(ExecutorTest, BadAllocFromRunBecomesResourceExhausted) {
  QueryExecutor executor(ExecutorOptions{});
  QueryRequest request;
  request.run = [](QueryContext*) -> PartialResult { throw std::bad_alloc(); };
  const QueryOutcome outcome = executor.Execute(request);
  EXPECT_EQ(outcome.result.status.code(), StatusCode::kResourceExhausted);
}

TEST(ExecutorTest, AttachesMemoryBudgetAndReportsPeak) {
  ExecutorOptions opt;
  opt.memory_budget_bytes = 1 << 20;
  QueryExecutor executor(opt);
  QueryRequest request;
  request.run = [](QueryContext* ctx) {
    MemoryBudget* budget = ctx->memory_budget();
    EXPECT_NE(budget, nullptr);
    EXPECT_TRUE(budget->Charge(1 << 10, "test").ok());
    budget->Release(1 << 10);
    return OkResult();
  };
  const QueryOutcome outcome = executor.Execute(request);
  EXPECT_TRUE(outcome.result.status.ok());
  EXPECT_EQ(outcome.memory_peak_bytes, 1 << 10);
}

TEST(ExecutorTest, CallerAttachedBudgetWins) {
  ExecutorOptions opt;
  opt.memory_budget_bytes = 1 << 20;
  QueryExecutor executor(opt);
  MemoryBudget mine(1 << 16);
  QueryContext ctx;
  ctx.set_memory_budget(&mine);
  QueryRequest request;
  request.ctx = &ctx;
  request.run = [&](QueryContext* run_ctx) {
    EXPECT_EQ(run_ctx->memory_budget(), &mine);
    return OkResult();
  };
  EXPECT_TRUE(executor.Execute(request).result.status.ok());
  EXPECT_EQ(ctx.memory_budget(), &mine);  // not cleared by the executor
}

// End-to-end parity: a real CrashSim query through the executor (idle, no
// degradation) is bit-identical to calling the engine directly.
TEST(ExecutorTest, UnloadedExecutorPreservesEngineResultsExactly) {
  Rng rng(3);
  const Graph g = ErdosRenyi(200, 800, /*undirected=*/false, &rng);
  CrashSimOptions copt;
  copt.mc.trials_override = 200;
  copt.mc.seed = 11;

  CrashSim direct(copt);
  ASSERT_TRUE(direct.Bind(&g).ok());
  QueryContext direct_ctx;
  const PartialResult expected = direct.SingleSource(5, &direct_ctx);
  ASSERT_TRUE(expected.status.ok());

  CrashSim engine(copt);
  ASSERT_TRUE(engine.Bind(&g).ok());
  QueryExecutor executor(ExecutorOptions{});
  QueryRequest request;
  request.run = [&](QueryContext* ctx) { return engine.SingleSource(5, ctx); };
  const QueryOutcome outcome = executor.Execute(request);
  ASSERT_TRUE(outcome.result.status.ok());
  EXPECT_EQ(outcome.result.trials_done, expected.trials_done);
  EXPECT_EQ(outcome.result.scores, expected.scores);
}

}  // namespace
}  // namespace crashsim
