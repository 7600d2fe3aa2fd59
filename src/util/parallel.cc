#include "util/parallel.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <thread>
#include <vector>

#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/trace.h"

namespace crashsim {
namespace {

// Process-wide ParallelFor telemetry (util/metrics.h). Function-local static
// references: the registry lookup happens once, the hot path only touches
// the counters. "parallel.inline_calls" counts calls that ran entirely on
// the calling thread (budget <= 1 or nested on a pool worker);
// "parallel.shards" totals the shards handed to pool workers, so
// shards / (for_calls - inline_calls) is the mean fan-out of the calls that
// actually parallelised.
Counter& ForCallsCounter() {
  static Counter& c = MetricsRegistry::Global().counter("parallel.for_calls");
  return c;
}
Counter& InlineCallsCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("parallel.inline_calls");
  return c;
}
Counter& ShardsCounter() {
  static Counter& c = MetricsRegistry::Global().counter("parallel.shards");
  return c;
}
Gauge& WorkersGauge() {
  static Gauge& g = MetricsRegistry::Global().gauge("parallel.workers");
  return g;
}
Counter& ShardErrorsCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("parallel.shard_errors");
  return c;
}

// In-flight state of one ParallelFor call: the pool signals `done` once all
// shards handed to it have finished. When several shards fail concurrently
// the exception kept for rethrow is the one from the lowest-begin shard
// (caller shard included) — deterministic in the chunk boundaries, not in
// completion order — and every failing shard bumps parallel.shard_errors.
struct ForState {
  const std::function<void(int64_t, int64_t)>* fn = nullptr;
  Mutex mu;
  CondVar done;
  int pending CRASHSIM_GUARDED_BY(mu) = 0;
  std::exception_ptr first_error CRASHSIM_GUARDED_BY(mu);
  int64_t first_error_begin CRASHSIM_GUARDED_BY(mu) = -1;

  void RecordError(std::exception_ptr e, int64_t begin) {
    ShardErrorsCounter().Add(1);
    const MutexLock lock(mu);
    if (!first_error || begin < first_error_begin) {
      first_error = std::move(e);
      first_error_begin = begin;
    }
  }
};

// A contiguous shard of one ParallelFor range, queued for a pool worker.
// request_trace carries the submitting thread's trace collector so
// worker-side spans land in the same trace (nullptr = none installed at
// submit time); flow_id ties the shard back to the spawning ParallelFor span
// (0 when nothing records it).
struct Shard {
  ForState* state = nullptr;
  int64_t begin = 0;
  int64_t end = 0;
  uint64_t flow_id = 0;
  RequestTrace* request_trace = nullptr;
};

// True on threads owned by the pool: a nested ParallelFor on a worker runs
// inline instead of queueing (queueing could deadlock once every worker
// waits on shards only other workers could drain).
thread_local bool t_is_pool_worker = false;

class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool* const pool = new ThreadPool();  // leaked: workers may
    return *pool;  // outlive static destruction order, so never torn down
  }

  int num_workers() const { return static_cast<int>(workers_.size()); }

  void Submit(std::vector<Shard> shards) {
    {
      const MutexLock lock(mu_);
      for (Shard& s : shards) queue_.push_back(s);
    }
    if (shards.size() > 1) {
      work_ready_.NotifyAll();
    } else {
      work_ready_.NotifyOne();
    }
  }

 private:
  ThreadPool() {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const int count = std::max(1, static_cast<int>(hw) - 1);
    workers_.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
    WorkersGauge().Set(count);
  }

  void WorkerLoop() {
    t_is_pool_worker = true;
    for (;;) {
      Shard shard;
      {
        MutexLock lock(mu_);
        while (queue_.empty()) work_ready_.Wait(mu_);
        shard = queue_.front();
        queue_.pop_front();
      }
      try {
        // The submitting thread's collector follows the shard onto this
        // worker, so the shard span plus the flow-in arrow make worker
        // execution attributable both to the ParallelFor call that spawned
        // it (Perfetto) and to the traced request or run it belongs to.
        const TraceRequestScope request_scope(shard.request_trace);
        TRACE_SPAN("parallel_for.shard");
        TraceFlowIn(shard.flow_id);
        CRASHSIM_FAILPOINT_THROW("parallel.worker");
        (*shard.state->fn)(shard.begin, shard.end);
      } catch (...) {
        shard.state->RecordError(std::current_exception(), shard.begin);
      }
      const MutexLock lock(shard.state->mu);
      if (--shard.state->pending == 0) shard.state->done.NotifyOne();
    }
  }

  Mutex mu_;
  CondVar work_ready_;
  std::deque<Shard> queue_ CRASHSIM_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
};

}  // namespace

int ParallelWorkerCount() { return ThreadPool::Instance().num_workers(); }

void ParallelFor(int64_t n, const std::function<void(int64_t, int64_t)>& fn,
                 int64_t min_chunk, int max_threads) {
  if (n <= 0) return;
  TRACE_SPAN("parallel_for");
  ForCallsCounter().Add(1);
  // Thread budget: the explicit cap when given (honoured even beyond core
  // count — an explicit request to oversubscribe is the caller's call),
  // otherwise hardware concurrency; never more than one thread per min_chunk
  // of work, and never more than caller + pool.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  int64_t budget = max_threads > 0 ? max_threads : static_cast<int64_t>(hw);
  budget = std::min(budget, (n + min_chunk - 1) / min_chunk);
  // Inline runs are the caller shard of a one-shard call, so their failures
  // count in parallel.shard_errors like any other shard's — the metric
  // contract must not depend on the machine's core count.
  const auto run_inline = [&fn, n] {
    InlineCallsCounter().Add(1);
    try {
      fn(0, n);  // inline path never touches (or spawns) the pool
    } catch (...) {
      ShardErrorsCounter().Add(1);
      throw;
    }
  };
  if (budget <= 1 || t_is_pool_worker) {
    run_inline();
    return;
  }
  budget = std::min(
      budget, static_cast<int64_t>(ThreadPool::Instance().num_workers()) + 1);
  if (budget <= 1) {
    run_inline();
    return;
  }

  const int64_t num_shards = budget;
  const int64_t chunk = (n + num_shards - 1) / num_shards;
  ForState state;
  state.fn = &fn;

  // Flow arrow from this call's span to every shard span it spawns, minted
  // only when a collector is installed to record it.
  RequestTrace* const request_trace = CurrentRequestTrace();
  const uint64_t flow_id = request_trace != nullptr ? NewTraceFlowId() : 0;
  TraceFlowOut(flow_id);

  std::vector<Shard> shards;
  shards.reserve(static_cast<size_t>(num_shards - 1));
  for (int64_t t = 1; t < num_shards; ++t) {
    const int64_t begin = t * chunk;
    const int64_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    shards.push_back({&state, begin, end, flow_id, request_trace});
  }
  state.pending = static_cast<int>(shards.size());
  // Caller shard + pool shards; counted before Submit so the total is stable
  // by the time the call returns.
  ShardsCounter().Add(static_cast<int64_t>(shards.size()) + 1);
  if (!shards.empty()) ThreadPool::Instance().Submit(std::move(shards));

  // The caller is thread 0: it runs the first chunk itself, so max_threads
  // counts it, and an all-idle pool still makes progress.
  try {
    fn(0, std::min(n, chunk));
  } catch (...) {
    state.RecordError(std::current_exception(), 0);
  }

  {
    const MutexLock lock(state.mu);
    while (state.pending != 0) state.done.Wait(state.mu);
  }
  if (state.first_error) std::rethrow_exception(state.first_error);
}

}  // namespace crashsim
