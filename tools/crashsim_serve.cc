// crashsim_serve — the always-on query service (docs/SERVING.md).
//
//   crashsim_serve --graph FILE [--temporal FILE] [--port P] ...
//
// Binds the graph once, then answers concurrent top-k and temporal queries
// over the length-prefixed JSON protocol until SIGINT/SIGTERM, when it
// drains in-flight queries and exits 0. A second listener serves
// GET /metrics in Prometheus text format.
//
// Exit codes follow the crashsim_cli table (ExitCodeFor, docs/ERRORS.md): 0
// clean shutdown, 1 usage error, 2 INVALID_ARGUMENT, 8 UNAVAILABLE (bind
// failed).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include "core/engine_flags.h"
#include "graph/graph_io.h"
#include "serve/server.h"
#include "util/event_log.h"
#include "util/flags.h"
#include "util/status.h"

namespace crashsim {
namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

int FailStatus(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return ExitCodeFor(status.code());
}

int Run(int argc, char** argv) {
  FlagSet flags;
  flags.DefineString("graph", "", "static edge-list file (required)");
  flags.DefineString("temporal", "",
                     "temporal edge-list file; omit to serve topk only");
  flags.DefineBool("undirected", false, "treat edges as undirected");
  flags.DefineString("host", "127.0.0.1", "listen address");
  flags.DefineIntInRange("port", 0, 0, 65535,
                         "query port (0 = ephemeral, reported on stdout)");
  flags.DefineIntInRange("metrics_port", 0, -1, 65535,
                         "/metrics HTTP port (0 = ephemeral, -1 = disabled)");
  flags.DefineString("port_file", "",
                     "write '<port> <metrics_port>' here once listening "
                     "(lets scripts find ephemeral ports)");
  flags.DefineIntInRange("max_connections", 64, 1, 4096,
                         "concurrent connection ceiling");
  flags.DefineIntInRange("default_timeout_ms", 0, 0, 86400000,
                         "deadline for requests without timeout_ms (0 = none)");
  DefineExecutorFlags(&flags);
  flags.DefineIntInRange("cache_mb", 256, 0, 1 << 20,
                         "shared-tree cache capacity in MiB (0 = unbounded)");
  DefineEngineFlags(&flags);
  // Request-scoped observability (docs/OBSERVABILITY.md).
  flags.DefineString("event_log", "",
                     "structured JSON-lines event log path (empty = stderr)");
  flags.DefineIntInRange("slow_query_ms", 500, -1, 86400000,
                         "slow-query log threshold; 0 logs every request, "
                         "-1 disables the slow-query log");
  flags.DefineIntInRange("tracez_capacity", 64, 0, 65536,
                         "/tracez retains this many sampled request traces "
                         "(0 disables per-request tracing)");
  flags.DefineIntInRange("tracez_sample_every", 16, 0, 1 << 30,
                         "sample every Nth request into /tracez even when "
                         "fast and OK (0 = only slow requests)");
  flags.DefineIntInRange("slo_ms", 500, 1, 86400000,
                         "/statusz SLO latency threshold");
  if (!flags.Parse(argc, argv)) return 1;
  if (flags.GetString("graph").empty()) {
    std::fprintf(stderr, "error: --graph is required\n");
    return 1;
  }

  auto loaded_or = LoadEdgeListFile(flags.GetString("graph"),
                                    flags.GetBool("undirected"));
  if (!loaded_or.ok()) return FailStatus(loaded_or.status());
  std::optional<LoadedTemporalGraph> temporal;
  if (!flags.GetString("temporal").empty()) {
    auto temporal_or = LoadTemporalEdgeListFile(flags.GetString("temporal"),
                                                flags.GetBool("undirected"));
    if (!temporal_or.ok()) return FailStatus(temporal_or.status());
    temporal.emplace(std::move(*temporal_or));
  }

  ServerOptions options;
  options.host = flags.GetString("host");
  options.port = static_cast<int>(flags.GetInt("port"));
  options.metrics_port = static_cast<int>(flags.GetInt("metrics_port"));
  options.max_connections = static_cast<int>(flags.GetInt("max_connections"));
  options.default_timeout_ms = flags.GetInt("default_timeout_ms");
  StatusOr<ExecutorOptions> executor_or = ExecutorOptionsFromFlags(flags);
  if (!executor_or.ok()) return FailStatus(executor_or.status());
  options.executor = *executor_or;
  StatusOr<CrashSimOptions> engine_or = EngineOptionsFromFlags(flags);
  if (!engine_or.ok()) return FailStatus(engine_or.status());
  options.engine = *engine_or;
  options.cache.capacity_bytes = flags.GetInt("cache_mb") * (1 << 20);
  options.slow_query_ms = flags.GetInt("slow_query_ms");
  options.tracez_capacity = static_cast<int>(flags.GetInt("tracez_capacity"));
  options.tracez_sample_every =
      static_cast<int>(flags.GetInt("tracez_sample_every"));
  options.slo_ms = flags.GetInt("slo_ms");

  // Structured event log: lifecycle events and the server's slow-query
  // lines go here as crashsim.event.v1 JSON lines instead of ad-hoc stderr.
  EventLog::Options log_options;
  log_options.path = flags.GetString("event_log");
  EventLog event_log(log_options);
  if (!log_options.path.empty() && !event_log.ok()) {
    std::fprintf(stderr, "warning: cannot open %s; events go to stderr\n",
                 log_options.path.c_str());
  }
  options.event_log = &event_log;
  if (Status s = options.Validate(); !s.ok()) return FailStatus(s);

  const int64_t graph_nodes = loaded_or->graph.num_nodes();
  const int64_t graph_edges = loaded_or->graph.num_edges();
  Server server(std::move(*loaded_or), std::move(temporal), options);
  if (Status s = server.Start(); !s.ok()) return FailStatus(s);
  event_log.Log(EventBuilder("server_start")
                    .Str("host", options.host)
                    .Int("port", server.port())
                    .Int("metrics_port", server.metrics_port())
                    .Int("nodes", graph_nodes)
                    .Int("edges", graph_edges)
                    .Finish());

  std::printf("listening port=%d metrics_port=%d\n", server.port(),
              server.metrics_port());
  std::fflush(stdout);
  if (!flags.GetString("port_file").empty()) {
    std::ofstream out(flags.GetString("port_file"));
    if (out) out << server.port() << " " << server.metrics_port() << "\n";
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   flags.GetString("port_file").c_str());
    }
  }

  struct sigaction action = {};
  action.sa_handler = HandleSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("draining...\n");
  std::fflush(stdout);
  server.Shutdown();
  const Server::Stats stats = server.stats();
  event_log.Log(EventBuilder("server_stop")
                    .Int("requests", stats.requests)
                    .Int("errors", stats.errors)
                    .Int("connections", stats.connections_accepted)
                    .Int("eventlog_dropped", event_log.dropped())
                    .Finish());
  event_log.Flush();
  std::printf("served %lld requests (%lld errors) on %lld connections; "
              "clean shutdown\n",
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.errors),
              static_cast<long long>(stats.connections_accepted));
  return 0;
}

}  // namespace
}  // namespace crashsim

int main(int argc, char** argv) { return crashsim::Run(argc, argv); }
