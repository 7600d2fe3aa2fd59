#ifndef CRASHSIM_CORE_EXECUTOR_H_
#define CRASHSIM_CORE_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/query_context.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace crashsim {

// Admission-controlled query execution for the serving core (ROADMAP item
// 1): overload sheds or degrades queries — it never aborts the process,
// never corrupts shared state, and reports what it did through the Status
// taxonomy and its Stats ledger (the executor.* metrics). Policy details
// and the failure-mode catalog live in docs/ROBUSTNESS.md.
//
// The executor runs each query synchronously on the submitting thread (the
// engines parallelise internally on the shared ParallelFor pool); what it
// adds is the gate in front: a bounded admission queue, deadline-aware
// rejection, a degradation policy that shrinks trial budgets under load,
// retry-with-backoff for transient (kUnavailable) faults, and a per-query
// MemoryBudget. N serving threads calling Execute() concurrently get at
// most max_concurrent queries running and max_queue waiting; the rest are
// shed with kResourceExhausted immediately.

struct ExecutorOptions {
  // Queries allowed to run concurrently (>= 1).
  int max_concurrent = 4;
  // Queries allowed to wait for a slot beyond the running ones (>= 0);
  // arrivals beyond running + queued capacity are shed immediately.
  int max_queue = 16;
  // Deadline given to requests that arrive without a context of their own;
  // 0 means no default deadline.
  int64_t default_deadline_ms = 0;
  // Load factor (running + queued) / max_concurrent at which degradation
  // starts; a query admitted at load L >= degrade_at runs with trial
  // fraction clamp(degrade_at / L, degrade_min_fraction, 1). <= 0 disables
  // degradation.
  double degrade_at = 2.0;
  // Floor for the degraded trial fraction, in (0, 1].
  double degrade_min_fraction = 0.25;
  // Retry budget for queries that fail with kUnavailable (transient faults,
  // e.g. failpoint-injected ones). 0 disables retries; Validate() rejects
  // values above kMaxRetriesLimit.
  static constexpr int kMaxRetriesLimit = 1000;
  int max_retries = 2;
  // Initial retry backoff; doubles per retry, capped at 100 ms, and never
  // sleeps past the query deadline.
  int64_t retry_backoff_ms = 1;
  // Per-query MemoryBudget limit; 0 means unlimited (no budget attached).
  int64_t memory_budget_bytes = 0;

  [[nodiscard]] Status Validate() const;
};

// One query: `run` is any context-aware engine entry point bound to its
// arguments — CrashSim, ProbeSim, READS single-source calls or a CrashSim-T
// window adapted into a PartialResult. The executor owns the lifecycle
// around it (admission, degradation, retries, budget); `run` must honour
// the QueryContext it is handed (deadline, cancellation, trial fraction).
struct QueryRequest {
  std::function<PartialResult(QueryContext*)> run;
  // Optional caller-owned context: its deadline steers admission, Cancel()
  // works while queued and while running, and its stats sink is preserved.
  // nullptr: the executor supplies a context (with default_deadline_ms).
  QueryContext* ctx = nullptr;
};

struct QueryOutcome {
  // result.status is the query's final status: kOk, or the documented shed
  // / fault code (see docs/ROBUSTNESS.md). Partial scores follow the usual
  // anytime contract.
  PartialResult result;
  // False when the query was shed before running (queue full, projected
  // wait past deadline, expired or cancelled while queued).
  bool admitted = false;
  // True when the degradation policy shrank the trial budget.
  bool degraded = false;
  double trial_fraction = 1.0;
  // Retries actually performed (transient failures only).
  int retries = 0;
  double queue_wait_seconds = 0.0;
  double run_seconds = 0.0;
  // Peak MemoryBudget usage, when a budget was attached.
  int64_t memory_peak_bytes = 0;
};

class QueryExecutor {
 public:
  // CHECK-fails on invalid options (programmer error — validate untrusted
  // flag values with options.Validate() first).
  explicit QueryExecutor(const ExecutorOptions& options);

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  // Runs the query on the calling thread once admitted; blocks while
  // queued. Safe to call from any number of threads concurrently. Every
  // path returns a clean QueryOutcome — shed queries carry
  // kResourceExhausted (or kDeadlineExceeded / kCancelled when the wait
  // outlived the query) and admitted == false.
  QueryOutcome Execute(const QueryRequest& request);

  // Point-in-time counters (exact once submitters quiesce). The only copy
  // of the executor ledger: /statusz and /metrics both render it through
  // Values().
  struct Stats {
    int64_t submitted = 0;
    int64_t admitted = 0;
    int64_t shed_queue_full = 0;
    int64_t shed_deadline = 0;   // projected wait exceeded the deadline
    int64_t expired_in_queue = 0;
    int64_t cancelled_in_queue = 0;
    int64_t degraded = 0;
    int64_t retries = 0;
    int64_t completed = 0;  // admitted and finished OK
    int64_t failed = 0;     // admitted and finished non-OK
    int running = 0;
    int queued = 0;

    // Every field above in declaration order, named as /statusz keys them
    // and as the executor.* /metrics families; running and queued are
    // gauges.
    std::vector<LedgerValue> Values() const;
  };
  Stats stats() const;

  const ExecutorOptions& options() const { return options_; }

 private:
  const ExecutorOptions options_;

  mutable Mutex mu_;
  CondVar slot_free_;
  int running_ CRASHSIM_GUARDED_BY(mu_) = 0;
  int queued_ CRASHSIM_GUARDED_BY(mu_) = 0;
  // 0 until the first completion seeds the EWMA.
  double ewma_run_seconds_ CRASHSIM_GUARDED_BY(mu_) = 0.0;

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> admitted_{0};
  std::atomic<int64_t> shed_queue_full_{0};
  std::atomic<int64_t> shed_deadline_{0};
  std::atomic<int64_t> expired_in_queue_{0};
  std::atomic<int64_t> cancelled_in_queue_{0};
  std::atomic<int64_t> degraded_{0};
  std::atomic<int64_t> retries_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> failed_{0};
};

}  // namespace crashsim

#endif  // CRASHSIM_CORE_EXECUTOR_H_
