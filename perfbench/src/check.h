#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "served.h"
#include "workload.h"

namespace perfbench {

// The answer a response must carry, in original ids.
struct Expected {
  std::vector<int64_t> nodes;
  std::vector<double> scores;  // top-k only
  int64_t snapshots = 0;       // temporal only
};

// Computes, in process and in parallel, the reference answer for every key:
// top-k from CrashSim::SingleSource on the served graph, temporal from a
// fresh CrashSimT::Answer per query, both with the server's engine options.
std::map<int64_t, Expected> ReferenceAnswers(const Workload& w,
                                             const Inputs& in,
                                             const RequestPlan& plan,
                                             const std::set<int64_t>& keys);

// Counts the samples that failed: transport errors, non-OK statuses, and
// answers that differ from the reference in any node or any score bit.
// The first failure's description goes to *first_problem if it is empty.
int64_t CountFailures(const Workload& w, const std::vector<Sample>& samples,
                      const std::map<int64_t, Expected>& expected,
                      std::string* first_problem);

// max_err: the largest |served score - PairwiseMonteCarlo score| over the
// fixed oracle sample's top-k pairs; `pairs` receives the sample size.
// Top-k scores the served answers in `oracle` (the plan's oracle requests,
// sent after the timed phase). Temporal answers carry no scores, so for each
// of the plan's oracle (source, snapshot) pairs the check runs CrashSim with
// the server's options on that snapshot instead.
double MaxError(const Workload& w, const Inputs& in, const RequestPlan& plan,
                const std::vector<Sample>& oracle, int64_t* pairs);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
