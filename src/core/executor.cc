#include "core/executor.h"

#include <algorithm>
#include <chrono>
#include <new>
#include <optional>
#include <thread>

#include "util/failpoint.h"
#include "util/logging.h"
#include "util/memory_budget.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace crashsim {
namespace {

double SecondsUntil(std::chrono::steady_clock::time_point deadline) {
  return std::chrono::duration<double>(deadline -
                                       std::chrono::steady_clock::now())
      .count();
}

}  // namespace

Status ExecutorOptions::Validate() const {
  if (max_concurrent < 1) {
    return InvalidArgumentError(
        StrFormat("max_concurrent must be >= 1, got %d", max_concurrent));
  }
  if (max_queue < 0) {
    return InvalidArgumentError(
        StrFormat("max_queue must be >= 0, got %d", max_queue));
  }
  if (default_deadline_ms < 0) {
    return InvalidArgumentError(
        StrFormat("default_deadline_ms must be >= 0, got %lld",
                  static_cast<long long>(default_deadline_ms)));
  }
  if (degrade_at > 0.0 &&
      !(degrade_min_fraction > 0.0 && degrade_min_fraction <= 1.0)) {
    return InvalidArgumentError(
        StrFormat("degrade_min_fraction must be in (0, 1], got %g",
                  degrade_min_fraction));
  }
  if (max_retries < 0 || max_retries > kMaxRetriesLimit) {
    return InvalidArgumentError(
        StrFormat("max_retries must be in [0, %d], got %d", kMaxRetriesLimit,
                  max_retries));
  }
  if (retry_backoff_ms < 0) {
    return InvalidArgumentError(
        StrFormat("retry_backoff_ms must be >= 0, got %lld",
                  static_cast<long long>(retry_backoff_ms)));
  }
  if (memory_budget_bytes < 0) {
    return InvalidArgumentError(
        StrFormat("memory_budget_bytes must be >= 0, got %lld",
                  static_cast<long long>(memory_budget_bytes)));
  }
  return OkStatus();
}

QueryExecutor::QueryExecutor(const ExecutorOptions& options)
    : options_(options) {
  if (Status s = options_.Validate(); !s.ok()) {
    CRASHSIM_CHECK(false) << "invalid ExecutorOptions: " << s.ToString();
  }
}

QueryOutcome QueryExecutor::Execute(const QueryRequest& request) {
  TRACE_SPAN("executor.query");
  QueryOutcome outcome;
  if (!request.run) {
    outcome.result.status = InvalidArgumentError("QueryRequest.run is empty");
    return outcome;
  }

  // Requests without a context get an executor-supplied one so degradation,
  // budgets, and the default deadline still apply.
  std::optional<QueryContext> local_ctx;
  QueryContext* ctx = request.ctx;
  if (ctx == nullptr) {
    if (options_.default_deadline_ms > 0) {
      local_ctx.emplace(std::chrono::milliseconds(options_.default_deadline_ms));
    } else {
      local_ctx.emplace();
    }
    ctx = &*local_ctx;
  }

  submitted_.fetch_add(1, std::memory_order_relaxed);
  const auto submit_time = std::chrono::steady_clock::now();

  // Injected admission fault (chaos tier): behaves like a shed.
  if (Status s = CRASHSIM_FAILPOINT("executor.admit"); !s.ok()) {
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    outcome.result.status = s;
    return outcome;
  }

  // ---- Admission: bounded queue with deadline-aware rejection. ----
  double trial_fraction = 1.0;
  {
    TRACE_SPAN("executor.admit");
    const MutexLock lock(mu_);
    // Straight to a slot only when nobody is waiting (no queue jumping).
    if (running_ >= options_.max_concurrent || queued_ > 0) {
      if (queued_ >= options_.max_queue) {
        shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
        outcome.result.status = ResourceExhaustedError(StrFormat(
            "query shed: admission queue full (%d running, %d queued, "
            "max_queue %d)",
            running_, queued_, options_.max_queue));
        return outcome;
      }
      // Projected wait for queue position q with EWMA run time R and
      // max_concurrent slots draining in parallel: ~R * (q + 1) /
      // max_concurrent. A query whose deadline cannot survive that wait is
      // shed now — cheaper for everyone than admitting a corpse.
      if (ctx->has_deadline() && ewma_run_seconds_ > 0.0) {
        const double projected_wait = ewma_run_seconds_ *
                                      static_cast<double>(queued_ + 1) /
                                      static_cast<double>(options_.max_concurrent);
        const double slack = SecondsUntil(ctx->deadline());
        if (projected_wait > slack) {
          shed_deadline_.fetch_add(1, std::memory_order_relaxed);
          outcome.result.status = ResourceExhaustedError(StrFormat(
              "query shed: projected queue wait %.1f ms exceeds deadline "
              "slack %.1f ms",
              projected_wait * 1e3, slack * 1e3));
          return outcome;
        }
      }
      ++queued_;
      // Wait for a slot. Bounded waits (5 ms) so an external Cancel() or an
      // expiring deadline is honoured promptly even without a notify.
      while (running_ >= options_.max_concurrent) {
        if (ctx->cancelled()) {
          --queued_;
          cancelled_in_queue_.fetch_add(1, std::memory_order_relaxed);
          outcome.result.status =
              CancelledError("query cancelled while queued for admission");
          return outcome;
        }
        if (ctx->has_deadline() &&
            std::chrono::steady_clock::now() >= ctx->deadline()) {
          --queued_;
          expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
          outcome.result.status = DeadlineExceededError(
              "query deadline expired while queued for admission");
          return outcome;
        }
        slot_free_.WaitFor(mu_, std::chrono::milliseconds(5));
      }
      --queued_;
    }
    ++running_;
    admitted_.fetch_add(1, std::memory_order_relaxed);
    outcome.admitted = true;
    // Degradation decision at start-of-run load: trade accuracy for
    // liveness once the backlog crosses degrade_at, floor at
    // degrade_min_fraction. The engine reports the looser
    // epsilon_achieved of the shrunken budget.
    if (options_.degrade_at > 0.0) {
      const double load = static_cast<double>(running_ + queued_) /
                          static_cast<double>(options_.max_concurrent);
      if (load >= options_.degrade_at) {
        trial_fraction = std::clamp(options_.degrade_at / load,
                                    options_.degrade_min_fraction, 1.0);
      }
    }
  }
  outcome.queue_wait_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    submit_time)
          .count();

  const double saved_fraction = ctx->trial_fraction();
  if (trial_fraction < 1.0) {
    outcome.degraded = true;
    degraded_.fetch_add(1, std::memory_order_relaxed);
    ctx->set_trial_fraction(trial_fraction);
  }
  outcome.trial_fraction = trial_fraction;

  // Per-query memory accounting; a caller-attached budget wins.
  std::optional<MemoryBudget> budget;
  if (options_.memory_budget_bytes > 0 && ctx->memory_budget() == nullptr) {
    budget.emplace(options_.memory_budget_bytes);
    ctx->set_memory_budget(&*budget);
  }

  // ---- Run, retrying transient (kUnavailable) failures with backoff. ----
  const auto run_start = std::chrono::steady_clock::now();
  for (int attempt = 0;; ++attempt) {
    try {
      outcome.result = request.run(ctx);
    } catch (const StatusException& e) {
      // A fault hoisted out of a parallel region that the engine did not
      // convert itself; the partial answer is gone but the Status survives.
      outcome.result = PartialResult{};
      outcome.result.status = e.status();
    } catch (const std::bad_alloc&) {
      outcome.result = PartialResult{};
      outcome.result.status =
          ResourceExhaustedError("out of memory while executing query");
    }
    const Status& status = outcome.result.status;
    if (status.ok() || status.code() != StatusCode::kUnavailable) break;
    if (attempt >= options_.max_retries) break;
    if (ctx->cancelled()) break;
    // Exponential backoff capped at 100 ms, computed by doubling instead of
    // `retry_backoff_ms << attempt`: a left shift by >= 63 is undefined even
    // when the shifted value is zero, and attempt is bounded only by
    // max_retries (user-configurable up to 1000).
    constexpr int64_t kMaxBackoffMs = 100;
    int64_t backoff_ms = std::min(options_.retry_backoff_ms, kMaxBackoffMs);
    for (int i = 0; i < attempt && backoff_ms > 0 && backoff_ms < kMaxBackoffMs;
         ++i) {
      backoff_ms = std::min(backoff_ms * 2, kMaxBackoffMs);
    }
    if (ctx->has_deadline()) {
      const double slack = SecondsUntil(ctx->deadline());
      if (slack <= 0.0) break;  // the deadline would eat the retry anyway
      backoff_ms = std::min<int64_t>(
          backoff_ms, static_cast<int64_t>(slack * 1e3));
    }
    if (backoff_ms > 0) {
      TRACE_SPAN("executor.backoff");
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    ++outcome.retries;
    retries_.fetch_add(1, std::memory_order_relaxed);
  }
  outcome.run_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run_start)
          .count();

  if (budget.has_value()) {
    outcome.memory_peak_bytes = budget->peak();
    ctx->set_memory_budget(nullptr);
  }
  if (trial_fraction < 1.0) ctx->set_trial_fraction(saved_fraction);
  if (outcome.result.status.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }

  {
    const MutexLock lock(mu_);
    --running_;
    // EWMA (alpha = 0.2) of completed run times feeds the admission
    // projection; the first completion seeds it.
    ewma_run_seconds_ = ewma_run_seconds_ == 0.0
                            ? outcome.run_seconds
                            : 0.8 * ewma_run_seconds_ + 0.2 * outcome.run_seconds;
  }
  slot_free_.NotifyOne();
  return outcome;
}

std::vector<LedgerValue> QueryExecutor::Stats::Values() const {
  return {{"submitted", submitted},
          {"admitted", admitted},
          {"shed_queue_full", shed_queue_full},
          {"shed_deadline", shed_deadline},
          {"expired_in_queue", expired_in_queue},
          {"cancelled_in_queue", cancelled_in_queue},
          {"degraded", degraded},
          {"retries", retries},
          {"completed", completed},
          {"failed", failed},
          {"running", running, /*gauge=*/true},
          {"queued", queued, /*gauge=*/true}};
}

QueryExecutor::Stats QueryExecutor::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  s.cancelled_in_queue = cancelled_in_queue_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  {
    const MutexLock lock(mu_);
    s.running = running_;
    s.queued = queued_;
  }
  return s;
}

}  // namespace crashsim
