#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The traced run: replays the server's per-request call sequence in this
// process — ReadFrame -> ParseJson -> QueryExecutor::Execute (GetOrBuild ->
// EnsureDenseRows -> PartialWithTree, or CrashSimT::Answer) -> TopK ->
// JsonValue::Write -> WriteFrame, over a socketpair per client — with a
// steady-clock timer around each public call, for `seconds` of closed-loop
// load at the workload's client count. Counts come from the QueryStats sink
// and the cache and executor stats. Temporal queries are then replayed
// snapshot by snapshot to time SnapshotCursor::Advance and CrashSim::Bind.
//
// Returns every per-layer metric (zero where the workload does no work in
// that layer). `served_p50_ms` is the untraced client p50 the ledger's
// coverage and overhead are measured against.
std::vector<Metric> RunLedger(const Workload& w, const Inputs& in,
                              RequestPlan* plan, double seconds,
                              double served_p50_ms);

// Median and the q-quantile (nearest rank) of a sample; 0 when empty.
double Quantile(std::vector<double> v, double q);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
