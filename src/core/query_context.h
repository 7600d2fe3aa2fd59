#ifndef CRASHSIM_CORE_QUERY_CONTEXT_H_
#define CRASHSIM_CORE_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/status.h"

namespace crashsim {

class MemoryBudget;  // util/memory_budget.h
struct QueryStats;   // core/query_stats.h

// Per-query lifecycle control: a steady-clock deadline, a cooperative
// cancellation flag, and an optional QueryStats sink the engine fills as it
// works. Passed by
// pointer into the estimator entry points; nullptr means "no deadline, not
// cancellable, no stats" and costs nothing.
//
// Thread safety: Cancel()/cancelled() and the trial fraction are atomic and
// may be called from any thread while a query runs. The deadline is
// immutable after construction. The stats sink is NOT synchronised: set it
// before the query starts and read it after the query returns — the engine
// only writes to it from the querying thread (after parallel regions join),
// which is what keeps its counters deterministic across thread counts.
class QueryContext {
 public:
  // No deadline; can still be cancelled. The atomic members make the type
  // neither copyable nor movable — pass by pointer.
  QueryContext() = default;

  // Deadline `timeout` from now on the steady clock. A non-positive timeout
  // produces an already-expired deadline (useful in tests).
  explicit QueryContext(std::chrono::milliseconds timeout);
  explicit QueryContext(std::chrono::steady_clock::time_point deadline);

  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

  // Cooperative cancellation: flips the flag; the running query observes it
  // at its next checkpoint and returns kCancelled with a partial answer.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  // Checkpoint test, cheap enough for inner loops (one atomic load; one
  // clock read only when a deadline is set). Cancellation wins over the
  // deadline when both hold.
  [[nodiscard]] Status Check() const {
    if (cancelled()) return CancelledError("query cancelled");
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      return DeadlineExceededError("query deadline exceeded");
    }
    return OkStatus();
  }

  // Optional per-query observability sink (core/query_stats.h), borrowed —
  // it must outlive the query. nullptr (the default) records nothing.
  void set_stats(QueryStats* stats) { stats_ = stats; }
  QueryStats* stats() const { return stats_; }

  // Request attribution: the server-assigned id of the request this query
  // serves (0 = not request-scoped, the CLI/test default). Set at ingress
  // before the query starts, like the stats sink; read-only afterwards, so
  // layers below the executor (tree cache, engines) can stamp logs and
  // trace events without threading another parameter through.
  void set_request_id(uint64_t id) { request_id_ = id; }
  uint64_t request_id() const { return request_id_; }

  // Degradation knob, set by the QueryExecutor before the query starts (or
  // left at 1.0): engines scale their planned trial budget by this fraction
  // (never below one trial) and report the looser epsilon_achieved. Atomic
  // so a monitor may read it while the query runs; engines read it once at
  // planning time, so mid-query writes only affect later queries.
  void set_trial_fraction(double fraction) {
    trial_fraction_.store(fraction, std::memory_order_relaxed);
  }
  double trial_fraction() const {
    return trial_fraction_.load(std::memory_order_relaxed);
  }

  // Optional per-query memory accountant (util/memory_budget.h), borrowed —
  // it must outlive the query. Allocation-heavy stages (revReach builds)
  // charge it and surface kResourceExhausted when the budget is crossed.
  // Set before the query starts, like the stats sink.
  void set_memory_budget(MemoryBudget* budget) { memory_budget_ = budget; }
  MemoryBudget* memory_budget() const { return memory_budget_; }

 private:
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::atomic<bool> cancelled_{false};
  std::atomic<double> trial_fraction_{1.0};
  uint64_t request_id_ = 0;
  QueryStats* stats_ = nullptr;
  MemoryBudget* memory_budget_ = nullptr;
};

// An anytime single-source / partial SimRank answer. When the query ran to
// completion status is OK and trials_done == trials_target; on deadline or
// cancellation the scores are the *exact* result of running trials_done
// trials (deterministic given seed and trials_done — see Theorem 1's
// anytime reading), and epsilon_achieved quantifies the looser guarantee
//   epsilon_achieved = sqrt(3 c log(n / delta) / trials_done) + p * eps_t.
struct PartialResult {
  // Aligned with the candidate span (score of the source itself is 1).
  std::vector<double> scores;
  int64_t trials_done = 0;
  int64_t trials_target = 0;
  // +infinity when trials_done == 0 (no bound without at least one trial),
  // except for a CrashSim sweep, which runs no trials and reports its
  // truncation term p * eps_t.
  double epsilon_achieved = std::numeric_limits<double>::infinity();
  // kOk, kDeadlineExceeded, kCancelled, or kInvalidArgument (bad options /
  // out-of-range ids; scores are empty in that case).
  Status status;

  bool complete() const { return status.ok(); }
};

}  // namespace crashsim

#endif  // CRASHSIM_CORE_QUERY_CONTEXT_H_
