// perfbench_load — the served end-to-end benchmark's load generator.
//
//   perfbench_load --workload topk_hot|topk_cold|temporal --seed N
//                  --seconds S --trace 0|1 --serve_bin PATH --work_dir DIR
//                  [--smoke]
//
// Generates the workload's inputs from the seed, starts crashsim_serve on
// them (several times; the median start-up is setup_s), drives it over
// loopback with closed-loop clients for the timed phase, then checks every
// answer against an in-process reference and scores a seeded sample against
// a pairwise Monte-Carlo oracle. With --trace 1 the timed phase is split:
// half served (for the client p50 the ledger is measured against), half the
// in-process traced ledger (ledger.cc). The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "check.h"
#include "host_speed.h"
#include "ledger.h"
#include "serve/json.h"
#include "served.h"
#include "util/logging.h"
#include "util/timer.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string serve_bin;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--serve_bin") {
      a->serve_bin = value;
    } else if (flag == "--work_dir") {
      a->work_dir = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && !a->serve_bin.empty() &&
         !a->work_dir.empty();
}

std::string Format(double v) { return crashsim::JsonValue(v).Write(); }

int Run(const Args& a) {
  const std::optional<Workload> found = FindWorkload(a.workload, a.smoke);
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s' (topk_hot | topk_cold | "
                 "temporal)\n", a.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  mkdir(a.work_dir.c_str(), 0755);
  const Inputs in = GenerateInputs(w, a.work_dir);
  RequestPlan plan(w, in, a.seed);

  // Set-up: spawn to first answered ping, several times; keep the last.
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  const int starts = a.trace ? 1 : w.setup_repeats;
  for (int i = 0; i < starts; ++i) {
    if (server) server->Stop();
    server = std::make_unique<ServerProcess>(
        a.serve_bin, ServerArgs(w, in, a.work_dir + "/port"),
        a.work_dir + "/port", a.work_dir + "/server.log");
    setups.push_back(server->Start());
  }
  {
    Connection conn(server->port());
    std::string response;
    for (const Request& r : plan.WarmUp()) {
      if (!conn.Call(r.payload, &response)) {
        throw std::runtime_error("warm-up request failed");
      }
    }
  }

  const double served_seconds = a.trace ? a.seconds / 2 : a.seconds;
  HostSpeedProbe probe;
  probe.Start();
  const crashsim::Stopwatch timed;
  const std::vector<Sample> samples =
      RunLoad(server->port(), &plan, w.clients, served_seconds);
  const double elapsed = timed.ElapsedSeconds();
  const double ref_ms = probe.Stop();
  const double rss_mb = server->PeakRssMb();
  // Untimed: the fixed max_err sample, answered by the same server.
  std::vector<Sample> oracle;
  if (!a.trace) {
    Connection conn(server->port());
    for (const Request& r : plan.OracleRequests()) {
      Sample s;
      s.key = r.key;
      s.transport_ok = conn.Call(r.payload, &s.response);
      oracle.push_back(std::move(s));
    }
  }
  server->Stop();

  std::set<int64_t> keys;
  for (const Sample& s : samples) keys.insert(s.key);
  for (const Sample& s : oracle) keys.insert(s.key);
  const auto expected = ReferenceAnswers(w, in, plan, keys);
  std::string problem;
  const int64_t timed_failures = CountFailures(w, samples, expected, &problem);
  const int64_t failed =
      timed_failures + CountFailures(w, oracle, expected, &problem);
  const auto timed_requests = static_cast<int64_t>(samples.size());
  const auto attempted = timed_requests + static_cast<int64_t>(oracle.size());
  std::vector<double> latencies;
  for (const Sample& s : samples) {
    if (s.transport_ok) latencies.push_back(s.latency_ms);
  }
  const double p50 = Quantile(latencies, 0.5);
  const double p95 = Quantile(latencies, 0.95);
  double mean = 0.0;
  for (const double l : latencies) mean += l;
  mean /= static_cast<double>(std::max<size_t>(latencies.size(), 1));
  const double qps = static_cast<double>(timed_requests - timed_failures) /
                     std::max(elapsed, 1e-9);
  const double error_rate =
      attempted > 0
          ? static_cast<double>(failed) / static_cast<double>(attempted)
          : 1.0;

  std::vector<Metric> metrics;
  if (a.trace) {
    metrics = RunLedger(w, in, &plan, a.seconds / 2, p50);
  } else {
    int64_t pairs = 0;
    const double max_err = MaxError(w, in, plan, oracle, &pairs);
    // Latency and throughput in units of the reference chunk timed during
    // the same load (host_speed.h): the host's speed swings by up to 2x for
    // minutes at a time, and dividing it out leaves the program's own cost.
    metrics = {{"setup_s", Quantile(setups, 0.5), "s"},
               {"mean_ref", mean / ref_ms, "ref"},
               {"p95_ref", p95 / ref_ms, "ref"},
               {"qps_ref", qps * ref_ms, "1/kref"},
               {"rss_peak_mb", rss_mb, "MiB"},
               {"max_err", max_err, "abs"}};
    std::printf("as measured, in host time (not in the result):\n");
    const std::vector<Metric> measured = {{"p50_ms", p50, "ms"},
                                          {"mean_ms", mean, "ms"},
                                          {"p95_ms", p95, "ms"},
                                          {"qps", qps, "1/s"},
                                          {"ref_chunk_ms", ref_ms, "ms"}};
    for (const Metric& m : measured) {
      std::printf("  %-32s %s %s\n", m.name.c_str(), Format(m.value).c_str(),
                  m.unit.c_str());
    }
    std::printf("oracle sample for max_err: %lld (source, node) pairs, %lld "
                "walk pairs each\n",
                static_cast<long long>(pairs),
                static_cast<long long>(w.oracle_trials));
  }

  std::printf("workload %s seed %llu: %lld timed requests (%lld beyond "
              "p95), %d clients, %d slots\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<long long>(timed_requests),
              static_cast<long long>(timed_requests / 20), w.clients,
              w.max_concurrent);
  std::printf("check: verified %lld responses against %zu in-process "
              "references, %lld failed%s%s\n",
              static_cast<long long>(attempted), expected.size(),
              static_cast<long long>(failed), problem.empty() ? "" : ": ",
              problem.c_str());
  std::printf("  %-32s %s %s\n", "error_rate", Format(error_rate).c_str(),
              "ratio");
  crashsim::JsonValue out_metrics = crashsim::JsonValue::Object();
  for (const Metric& m : metrics) {
    std::printf("  %-32s %s %s\n", m.name.c_str(), Format(m.value).c_str(),
                m.unit.c_str());
    crashsim::JsonValue entry = crashsim::JsonValue::Object();
    entry.Set("value", crashsim::JsonValue(m.value));
    entry.Set("unit", crashsim::JsonValue(m.unit));
    out_metrics.Set(m.name, std::move(entry));
  }
  crashsim::JsonValue result = crashsim::JsonValue::Object();
  result.Set("correct", crashsim::JsonValue(attempted > 0 && failed == 0));
  result.Set("attempted", crashsim::JsonValue(attempted));
  result.Set("failed", crashsim::JsonValue(failed));
  result.Set("metrics", std::move(out_metrics));
  std::printf("%s\n", result.Write().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_load --workload NAME --seed N --seconds S "
                 "--trace 0|1 --serve_bin PATH --work_dir DIR [--smoke]\n");
    return 1;
  }
  crashsim::SetLogLevel(crashsim::LogLevel::kWarning);
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_load: %s\n", e.what());
    return 1;
  }
}
