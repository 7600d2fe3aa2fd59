#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/crashsim.h"
#include "core/executor.h"
#include "core/temporal_query.h"
#include "graph/graph_io.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

// Unwraps a library result; the benchmark cannot continue past a failed
// load, frame or query, so failures become exceptions main() reports.
template <typename T>
T OrThrow(crashsim::StatusOr<T> v, const std::string& what) {
  if (!v.ok()) throw std::runtime_error(what + ": " + v.status().ToString());
  return std::move(*v);
}
inline void OrThrow(const crashsim::Status& s, const std::string& what) {
  if (!s.ok()) throw std::runtime_error(what + ": " + s.ToString());
}

// One traffic mix. Every server setting that changes the work a query does
// is fixed here, so a run's work depends only on the workload and the seed.
struct Workload {
  std::string name;
  bool temporal = false;
  // Dataset registry stand-in and its size.
  std::string dataset;
  double scale = 1.0;
  int snapshots = 0;
  // Closed-loop clients, one connection each.
  int clients = 2;
  // Server settings (crashsim_serve flags of the same names).
  int max_concurrent = 2;
  int cache_mb = 256;
  int64_t trials = 100;
  // Top-k: k per request and, for the hot mix, the source-set size
  // (0 = every request draws a source not requested before).
  int k = 10;
  int hot_sources = 0;
  // Temporal: size of the seeded query pool and each query's window length
  // in snapshots.
  int pool = 0;
  int window = 3;
  // Verification: sources in the max_err oracle sample, and the oracle's
  // per-pair walk-pair budget.
  int oracle_sources = 0;
  int64_t oracle_trials = 0;
  // Server starts whose median is setup_s.
  int setup_repeats = 21;
};

// Returns the named workload, scaled down to a seconds-long configuration
// when `smoke` is set; nullopt for an unknown name.
std::optional<Workload> FindWorkload(const std::string& name, bool smoke);

// The engine options crashsim_serve builds from the flags the benchmark
// passes it (see ServerArgs) — the in-process reference and the traced
// ledger must run the exact same estimator.
crashsim::CrashSimOptions EngineOptions(const Workload& w);
crashsim::ExecutorOptions ExecutorOptionsFor(const Workload& w);

// Files the server reads, generated with the dataset registry, and the same
// files loaded back through the server's loaders (so node ids map
// identically on both sides). The graph is the registry's stand-in at its
// default seed for every run: the run seed varies the request stream, so
// max_err, which is scored on a fixed sample of that graph, stays one
// deterministic number and the latencies do not move with graph draws.
struct Inputs {
  std::string graph_path;
  std::string temporal_path;  // empty for top-k workloads
  crashsim::LoadedGraph graph;
  std::optional<crashsim::LoadedTemporalGraph> temporal;
};
Inputs GenerateInputs(const Workload& w, const std::string& dir);

// Original id -> dense NodeId, as the server's loaders assigned them.
std::unordered_map<int64_t, crashsim::NodeId> DenseIds(
    const std::vector<int64_t>& original_ids);

// crashsim_serve arguments (after the binary) for this workload.
std::vector<std::string> ServerArgs(const Workload& w, const Inputs& in,
                                    const std::string& port_file);

// The protocol's names for the temporal query kinds (docs/SERVING.md).
inline constexpr std::pair<const char*, crashsim::TemporalQueryKind>
    kWireKinds[] = {
        {"threshold", crashsim::TemporalQueryKind::kThreshold},
        {"increasing", crashsim::TemporalQueryKind::kTrendIncreasing},
        {"decreasing", crashsim::TemporalQueryKind::kTrendDecreasing},
};

// A temporal request, in the temporal graph's original ids.
struct TemporalSpec {
  crashsim::TemporalQueryKind kind = crashsim::TemporalQueryKind::kThreshold;
  int64_t source = 0;  // original id
  int begin = 0;
  int end = 0;
  double theta = 0.0;
  double tolerance = 0.0;
};

// One request as sent: the payload and the key its answer is checked
// under (a top-k source id, or an index into the temporal pool).
struct Request {
  std::string payload;
  int64_t key = 0;
};

// The seeded request stream of one run. Thread-safe: every client takes the
// next request from one shared cursor over a seeded order.
class RequestPlan {
 public:
  RequestPlan(const Workload& w, const Inputs& in, uint64_t seed);

  Request Next();

  // Requests that make every hot source resident before timing (empty for
  // the other mixes).
  std::vector<Request> WarmUp() const;

  // Restarts the cursor (the traced ledger replays the same stream against a
  // fresh cache).
  void Rewind() { next_.store(0); }

  // Requests for the max_err sample, sent after the timed phase.
  std::vector<Request> OracleRequests() const;

  const std::vector<TemporalSpec>& pool() const { return pool_; }
  // The temporal max_err sample: (source, snapshot) pairs as specs with
  // begin == end. Like the top-k oracle sources it does not depend on the
  // run seed.
  const std::vector<TemporalSpec>& oracle_snapshots() const {
    return oracle_snapshots_;
  }

 private:
  // Length of the hot and temporal request order before it repeats.
  static constexpr size_t kOrderLength = size_t{1} << 14;

  // Draws the source set or pool and the oracle samples.
  void BuildSet(const Workload& w, const Inputs& in, crashsim::Rng* rng,
                crashsim::Rng* fixed_rng, crashsim::Rng* oracle_rng);
  Request TopK(int64_t source) const;
  Request Temporal(size_t index) const;

  Workload w_;
  // Hot: the source set. Cold: a seeded permutation, consumed in order.
  std::vector<int64_t> sources_;
  std::vector<TemporalSpec> pool_;
  // The request stream: indices into sources_ (top-k) or pool_ (temporal).
  // Hot and temporal: seeded permutations of the whole set back to back, so
  // every stretch of the stream sends each query about equally often. Cold:
  // every source once, in order.
  std::vector<size_t> order_;
  std::atomic<size_t> next_{0};
  std::vector<int64_t> oracle_sources_;
  std::vector<TemporalSpec> oracle_snapshots_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
