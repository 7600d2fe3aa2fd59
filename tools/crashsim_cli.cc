// crashsim_cli — command-line front end for the library.
//
//   crashsim_cli stats    --graph FILE [--undirected]
//   crashsim_cli topk     --graph FILE --source ID --k K --algo NAME ...
//   crashsim_cli temporal --graph FILE --kind KIND --source ID ...
//   crashsim_cli replay   --port P --sources IDS [--clients N --requests R]
//   crashsim_cli generate --dataset NAME --scale S [--snapshots T] --out FILE
//
// Static graphs are "src dst" edge lists (SNAP format, '#' comments);
// temporal graphs carry a third snapshot column. Node ids in the output are
// the *original* file ids.
//
// Exit codes (ExitCodeFor, docs/ERRORS.md): 0 success, 1 usage/flag-parse
// error, then one distinct code per StatusCode — 2 INVALID_ARGUMENT,
// 3 NOT_FOUND, 4 DEADLINE_EXCEEDED, 5 CANCELLED, 6 RESOURCE_EXHAUSTED,
// 7 DATA_LOSS, 8 UNAVAILABLE — so sweep scripts can tell a timeout from a
// bad input without scraping stderr.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/baseline_temporal.h"
#include "core/crashsim.h"
#include "core/crashsim_t.h"
#include "core/engine_flags.h"
#include "core/query_context.h"
#include "core/query_stats.h"
#include "core/temporal_query.h"
#include "datasets/datasets.h"
#include "graph/analysis.h"
#include "graph/graph_io.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "simrank/monte_carlo.h"
#include "simrank/power_method.h"
#include "simrank/probesim.h"
#include "simrank/reads.h"
#include "simrank/sling.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/top_k.h"
#include "util/trace.h"

namespace crashsim {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int FailStatus(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return ExitCodeFor(status.code());
}

// --algo plus the engine flags every estimator shares (core/engine_flags.h).
void DefineAlgoFlags(FlagSet* flags) {
  flags->DefineString("algo", "crashsim",
                      "crashsim | probesim | sling | reads | mc | exact");
  DefineEngineFlags(flags);
}

// --timeout_ms, which only the CrashSim engine (`engine`) supports, and
// --stats/--stats_json, which the engines named by `stats_scope` support.
void DefineQueryFlags(FlagSet* flags, const std::string& engine,
                      const std::string& stats_scope) {
  flags->DefineIntInRange(
      "timeout_ms", 0, 0, 86400000,
      "query deadline in ms (0 = unbounded; " + engine + " only)");
  flags->DefineBool("stats", false,
                    "print the per-query observability table (" +
                        stats_scope + ")");
  flags->DefineBool("stats_json", false,
                    "print per-query stats as one JSON line (" + stats_scope +
                        ")");
}

void DefineTraceFlags(FlagSet* flags) {
  flags->DefineString("trace_out", "",
                      "write a Chrome trace-event JSON timeline of this query "
                      "(load in Perfetto / chrome://tracing; crashsim only)");
  flags->DefineBool("trace_summary", false,
                    "print the aggregated self/total time per span "
                    "(crashsim only)");
  flags->DefineString("metrics_out", "",
                      "write process metrics in Prometheus text exposition "
                      "format on exit");
}

bool WantStats(const FlagSet& flags) {
  return flags.GetBool("stats") || flags.GetBool("stats_json");
}

// Tracing and --timeout_ms instrument the CrashSim engines only; `selected`
// says whether the command's engine is one, and `requirement` names the
// flag value that selects it.
Status CheckCrashSimOnlyFlags(const FlagSet& flags, bool selected,
                              const std::string& requirement) {
  if (selected) return OkStatus();
  if (!flags.GetString("trace_out").empty() || flags.GetBool("trace_summary")) {
    return InvalidArgumentError("--trace_out/--trace_summary require " +
                                requirement);
  }
  if (flags.GetInt("timeout_ms") > 0) {
    return InvalidArgumentError("--timeout_ms requires " + requirement);
  }
  return OkStatus();
}

// A query context with the --timeout_ms deadline (0 = none) reporting into
// `stats` when --stats or --stats_json asked for it. QueryContext is neither
// copyable nor movable, hence the emplace into `ctx`.
void EmplaceQueryContext(const FlagSet& flags, QueryStats* stats,
                         std::optional<QueryContext>* ctx) {
  const int64_t timeout_ms = flags.GetInt("timeout_ms");
  if (timeout_ms > 0) {
    ctx->emplace(std::chrono::milliseconds(timeout_ms));
  } else {
    ctx->emplace();
  }
  if (WantStats(flags)) (*ctx)->set_stats(stats);
}

ReadsOptions ReadsOptionsFor(const SimRankOptions& mc) {
  ReadsOptions options;
  options.c = mc.c;
  options.seed = mc.seed;
  return options;
}

// The `algo` SimRank algorithm over validated engine options ("exact" is the
// power method at the paper's 55 iterations); nullptr for an unknown name.
std::unique_ptr<SimRankAlgorithm> MakeAlgorithm(const std::string& algo,
                                                const CrashSimOptions& options) {
  if (algo == "crashsim") return std::make_unique<CrashSim>(options);
  if (algo == "probesim") return std::make_unique<ProbeSim>(options.mc);
  if (algo == "sling") return std::make_unique<Sling>(options.mc);
  if (algo == "reads") {
    return std::make_unique<Reads>(ReadsOptionsFor(options.mc));
  }
  if (algo == "mc") return std::make_unique<PairwiseMonteCarlo>(options.mc);
  if (algo == "exact") return std::make_unique<PowerMethod>(options.mc.c, 55);
  return nullptr;
}

// The dense internal id of the original file id `original`.
StatusOr<NodeId> DenseSourceId(const std::vector<int64_t>& original_ids,
                               int64_t original) {
  const auto it =
      std::find(original_ids.begin(), original_ids.end(), original);
  if (it == original_ids.end()) {
    return NotFoundError("source id not present in the graph");
  }
  return static_cast<NodeId>(it - original_ids.begin());
}

// The top-k output format shared by `topk` and `replay --once`, so the
// serve smoke lane can diff a served answer against a direct one byte for
// byte: a header, one "  <original id>  <score>" line per ranked node.
void PrintRanking(int64_t k, int64_t source,
                  const std::vector<std::pair<double, int64_t>>& ranking) {
  std::printf("top-%lld nodes by s(%lld, v):\n", static_cast<long long>(k),
              static_cast<long long>(source));
  for (const auto& [score, id] : ranking) {
    std::printf("  %lld  %.5f\n", static_cast<long long>(id), score);
  }
}

// The trial budget behind an estimator's ranking (Theorem 1 inverted).
void PrintAnytimeFooter(int64_t trials_done, int64_t trials_target,
                        double epsilon_achieved) {
  std::printf("(anytime: %lld/%lld trials, epsilon_achieved=%.17g)\n",
              static_cast<long long>(trials_done),
              static_cast<long long>(trials_target), epsilon_achieved);
}

// Scoped tracing for one CLI run: when the user asked for a trace, installs
// a whole-run collector on the main thread (ParallelFor carries it to the
// pool shards), and on destruction — every exit path, including
// deadline/cancel failures, where a timeline is most useful — writes the
// Chrome JSON and prints the aggregate table. Write failures
// warn on stderr without changing the exit code: the query outcome already
// happened and stays authoritative.
class ScopedCliTrace {
 public:
  explicit ScopedCliTrace(const FlagSet& flags)
      : trace_out_(flags.GetString("trace_out")),
        summary_(flags.GetBool("trace_summary")),
        trace_(!trace_out_.empty() || summary_
                   ? std::make_unique<RequestTrace>(
                         /*request_id=*/0, RequestTrace::kRunCapacity)
                   : nullptr),
        scope_(trace_.get()) {}
  ~ScopedCliTrace() {
    if (trace_ == nullptr) return;
    if (!trace_out_.empty()) {
      std::ofstream out(trace_out_);
      if (out) out << ExportChromeTrace(*trace_);
      if (!out) {
        std::fprintf(stderr, "warning: cannot write trace to %s\n",
                     trace_out_.c_str());
      }
    }
    if (summary_) {
      std::printf("%s", ExportTraceAggregateTable(*trace_).c_str());
    }
  }

  ScopedCliTrace(const ScopedCliTrace&) = delete;
  ScopedCliTrace& operator=(const ScopedCliTrace&) = delete;

 private:
  std::string trace_out_;
  bool summary_;
  const std::unique_ptr<RequestTrace> trace_;  // null: no trace asked for
  const TraceRequestScope scope_;  // installs trace_ (a no-op when null)
};

// Dumps the process-wide registry (Prometheus text exposition format) to
// `path` on scope exit; empty path = disabled. Scoped for the same reason as
// the tracer: error exits still produce the file.
class ScopedMetricsExport {
 public:
  explicit ScopedMetricsExport(std::string path) : path_(std::move(path)) {}
  ~ScopedMetricsExport() {
    if (path_.empty()) return;
    std::ofstream out(path_);
    if (out) out << RenderPrometheusText(MetricsRegistry::Global().Snapshot());
    if (!out) {
      std::fprintf(stderr, "warning: cannot write metrics to %s\n",
                   path_.c_str());
    }
  }

  ScopedMetricsExport(const ScopedMetricsExport&) = delete;
  ScopedMetricsExport& operator=(const ScopedMetricsExport&) = delete;

 private:
  std::string path_;
};

// CLI query latency lands in the process registry so --metrics_out always
// has a histogram to expose.
void RecordCliQueryMillis(double ms) {
  static FixedHistogram& h = MetricsRegistry::Global().histogram(
      "cli.query_ms", ExponentialBuckets(1, 2.0, 14));
  h.Record(static_cast<int64_t>(ms));
}

// Renders the per-query observability record the way the caller asked:
// --stats prints the human table, --stats_json one line of the stable
// crashsim.query_stats.v1 schema (docs/OBSERVABILITY.md). Both may be set.
void PrintQueryStats(const FlagSet& flags, const QueryStatsEnvelope& env,
                     const QueryStats& qs) {
  if (flags.GetBool("stats")) std::printf("%s", qs.ToTable().c_str());
  if (flags.GetBool("stats_json")) {
    std::printf("%s\n", QueryStatsJson(env, qs).c_str());
  }
}

int RunStats(int argc, char** argv) {
  FlagSet flags;
  flags.DefineString("graph", "", "edge-list file");
  flags.DefineBool("undirected", false, "treat edges as undirected");
  if (!flags.Parse(argc, argv)) return 1;
  const auto loaded_or = LoadEdgeListFile(flags.GetString("graph"),
                                          flags.GetBool("undirected"));
  if (!loaded_or.ok()) return FailStatus(loaded_or.status());
  const LoadedGraph& loaded = *loaded_or;
  const GraphStats stats = AnalyzeGraph(loaded.graph);
  std::printf("%s\n", Summary(stats).c_str());
  std::printf("in-degree  %s\n", stats.in_degrees.ToString().c_str());
  std::printf("out-degree %s\n", stats.out_degrees.ToString().c_str());
  return 0;
}

// One query path for every --algo: validated options, the algorithm's Bind
// (whose Status answers bad input such as a graph over the power method's
// node cap), one context-aware SingleSource, top-k selection. A deadline cut still prints
// the ranking the completed trials support, then exits with the
// deadline/cancel code.
int RunTopK(int argc, char** argv) {
  FlagSet flags;
  flags.DefineString("graph", "", "edge-list file");
  flags.DefineBool("undirected", false, "treat edges as undirected");
  flags.DefineInt("source", 0, "source node id (original file id)");
  flags.DefineIntInRange("k", 10, 1, 1000000, "result count");
  DefineQueryFlags(&flags, "crashsim", "crashsim only");
  DefineAlgoFlags(&flags);
  DefineTraceFlags(&flags);
  if (!flags.Parse(argc, argv)) return 1;

  const std::string algo_name = flags.GetString("algo");
  if (Status s = CheckCrashSimOnlyFlags(flags, algo_name == "crashsim",
                                        "--algo crashsim");
      !s.ok()) {
    return FailStatus(s);
  }
  // Only CrashSim fills the stats sink of a static query.
  if (algo_name != "crashsim" && WantStats(flags)) {
    return FailStatus(
        InvalidArgumentError("--stats/--stats_json require --algo crashsim"));
  }
  // Constructed before the graph load so the timeline includes
  // graph_io.load_edge_list; destroyed (exported) after the result prints.
  const ScopedCliTrace tracer(flags);
  const ScopedMetricsExport metrics_export(flags.GetString("metrics_out"));

  const auto loaded_or = LoadEdgeListFile(flags.GetString("graph"),
                                          flags.GetBool("undirected"));
  if (!loaded_or.ok()) return FailStatus(loaded_or.status());
  const LoadedGraph& loaded = *loaded_or;
  const Graph& g = loaded.graph;

  const int64_t original_source = flags.GetInt("source");
  const StatusOr<NodeId> source_or =
      DenseSourceId(loaded.original_ids, original_source);
  if (!source_or.ok()) return FailStatus(source_or.status());
  const NodeId source = *source_or;
  const StatusOr<CrashSimOptions> options = EngineOptionsFromFlags(flags);
  if (!options.ok()) return FailStatus(options.status());

  const std::unique_ptr<SimRankAlgorithm> algo =
      MakeAlgorithm(algo_name, *options);
  if (!algo) {
    return FailStatus(InvalidArgumentError("unknown --algo " + algo_name));
  }
  if (Status s = algo->Bind(&g); !s.ok()) return FailStatus(s);
  QueryStats qstats;
  std::optional<QueryContext> ctx;
  EmplaceQueryContext(flags, &qstats, &ctx);
  const Stopwatch query_timer;
  const PartialResult result = algo->SingleSource(source, &*ctx);
  const double elapsed = query_timer.ElapsedSeconds();
  RecordCliQueryMillis(elapsed * 1e3);
  if (result.scores.empty()) return FailStatus(result.status);

  std::vector<std::pair<double, int64_t>> ranking;
  for (const auto& [score, v] : SelectTopK(
           result.scores, source, static_cast<size_t>(flags.GetInt("k")))) {
    ranking.emplace_back(score, loaded.original_ids[static_cast<size_t>(v)]);
  }
  PrintRanking(flags.GetInt("k"), original_source, ranking);
  // The power method has no trial budget to report.
  if (algo_name != "exact") {
    PrintAnytimeFooter(result.trials_done, result.trials_target,
                       result.epsilon_achieved);
  }
  if (WantStats(flags)) {
    QueryStatsEnvelope env;
    env.query = "topk";
    env.algo = algo_name;
    env.n = static_cast<int64_t>(g.num_nodes());
    env.m = g.num_edges();
    env.elapsed_seconds = elapsed;
    PrintQueryStats(flags, env, qstats);
  }
  if (!result.complete()) {
    std::fprintf(stderr, "warning: %s\n", result.status.ToString().c_str());
  }
  return ExitCodeFor(result.status.code());
}

int RunTemporal(int argc, char** argv) {
  FlagSet flags;
  flags.DefineString("graph", "", "temporal edge-list file (src dst snapshot)");
  flags.DefineBool("undirected", false, "treat edges as undirected");
  flags.DefineInt("source", 0, "source node id (original file id)");
  flags.DefineString("kind", "threshold",
                     "threshold | increasing | decreasing");
  flags.DefineInt("begin", 0, "first snapshot of the query interval");
  flags.DefineInt("end", -1, "last snapshot (-1 = final snapshot)");
  flags.DefineDouble("theta", 0.05, "threshold value");
  flags.DefineDouble("tolerance", 0.0, "trend noise tolerance");
  flags.DefineString("engine", "crashsim-t",
                     "crashsim-t | probesim-t | sling-t | reads-t");
  DefineQueryFlags(&flags, "crashsim-t", "every engine");
  DefineAlgoFlags(&flags);
  DefineTraceFlags(&flags);
  if (!flags.Parse(argc, argv)) return 1;

  const std::string engine_name = flags.GetString("engine");
  if (Status s = CheckCrashSimOnlyFlags(flags, engine_name == "crashsim-t",
                                        "--engine crashsim-t");
      !s.ok()) {
    return FailStatus(s);
  }
  const ScopedCliTrace tracer(flags);
  const ScopedMetricsExport metrics_export(flags.GetString("metrics_out"));

  const auto loaded_or = LoadTemporalEdgeListFile(flags.GetString("graph"),
                                                  flags.GetBool("undirected"));
  if (!loaded_or.ok()) return FailStatus(loaded_or.status());
  const LoadedTemporalGraph& loaded = *loaded_or;
  const TemporalGraph& tg = loaded.graph;

  const int64_t original_source = flags.GetInt("source");
  const StatusOr<NodeId> source_or =
      DenseSourceId(loaded.original_ids, original_source);
  if (!source_or.ok()) return FailStatus(source_or.status());

  TemporalQuery query;
  query.source = *source_or;
  query.begin_snapshot = static_cast<int>(flags.GetInt("begin"));
  query.end_snapshot = ResolveEndSnapshot(flags.GetInt("end"),
                                          tg.num_snapshots());
  query.theta = flags.GetDouble("theta");
  query.trend_tolerance = flags.GetDouble("tolerance");
  const std::string kind = flags.GetString("kind");
  const StatusOr<TemporalQueryKind> kind_or = ParseTemporalQueryKind(kind);
  if (!kind_or.ok()) return FailStatus(kind_or.status());
  query.kind = *kind_or;
  if (Status s = ValidateQueryInterval(tg, query); !s.ok()) {
    return FailStatus(s);
  }
  const StatusOr<CrashSimOptions> options = EngineOptionsFromFlags(flags);
  if (!options.ok()) return FailStatus(options.status());

  std::unique_ptr<SimRankAlgorithm> algo;  // recomputed by the -T baselines
  std::unique_ptr<TemporalEngine> engine;
  if (engine_name == "crashsim-t") {
    CrashSimTOptions opt;
    opt.crashsim = *options;
    engine = std::make_unique<CrashSimT>(opt);
  } else if (engine_name == "probesim-t" || engine_name == "sling-t" ||
             engine_name == "reads-t") {
    // The estimator the engine name carries, without its "-t".
    algo = MakeAlgorithm(engine_name.substr(0, engine_name.size() - 2),
                         *options);
    engine = std::make_unique<StaticRecomputeEngine>(algo.get());
  } else {
    return FailStatus(InvalidArgumentError("unknown --engine " + engine_name));
  }

  std::optional<QueryContext> ctx;
  QueryStats qstats;
  EmplaceQueryContext(flags, &qstats, &ctx);
  const Stopwatch query_timer;
  const TemporalAnswer answer = engine->Answer(tg, query, &*ctx);
  const double query_seconds = query_timer.ElapsedSeconds();
  RecordCliQueryMillis(query_seconds * 1e3);
  // Rejected options: no snapshot ran, so there is no answer to print.
  if (answer.status.code() == StatusCode::kInvalidArgument) {
    return FailStatus(answer.status);
  }
  std::printf("%zu nodes satisfy the %s query over snapshots [%d, %d]:\n",
              answer.nodes.size(), kind.c_str(), query.begin_snapshot,
              query.end_snapshot);
  for (NodeId v : answer.nodes) {
    std::printf("  %lld\n", static_cast<long long>(
                                loaded.original_ids[static_cast<size_t>(v)]));
  }
  std::printf("(%d snapshots, %.3f s, %lld scores computed, %lld pruned)\n",
              answer.stats.snapshots_processed, query_seconds,
              static_cast<long long>(answer.stats.scores_computed),
              static_cast<long long>(answer.stats.CandidatesSkipped()));
  if (WantStats(flags)) {
    QueryStatsEnvelope env;
    env.query = "temporal";
    env.algo = engine_name;
    env.n = static_cast<int64_t>(tg.num_nodes());
    // m stays 0, as the server writes it: the edge count changes per
    // snapshot.
    env.elapsed_seconds = query_seconds;
    PrintQueryStats(flags, env, qstats);
  }
  if (!answer.complete()) {
    std::fprintf(stderr,
                 "warning: interval cut short after %d snapshot(s): %s\n",
                 answer.stats.snapshots_processed,
                 answer.status.ToString().c_str());
  }
  return ExitCodeFor(answer.status.code());
}

// Sorts the per-request latencies and prints the p50/p95/p99/max line that
// `replay` reports.
void PrintLatencyPercentiles(std::vector<double>* latencies_ms) {
  std::sort(latencies_ms->begin(), latencies_ms->end());
  const auto percentile = [&](double p) {
    return PercentileNearestRank(*latencies_ms, p);
  };
  std::printf("latency ms: p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
              percentile(0.50), percentile(0.95), percentile(0.99),
              latencies_ms->empty() ? 0.0 : latencies_ms->back());
}

// --- replay: load generator / client for crashsim_serve ---------------------

// One framed-JSON connection to a crashsim_serve instance.
class ServeClient {
 public:
  ~ServeClient() {
    if (fd_ >= 0) close(fd_);
  }
  ServeClient() = default;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  [[nodiscard]] Status Connect(const std::string& host, int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return UnavailableError(StrFormat("socket: %s", std::strerror(errno)));
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      return InvalidArgumentError("invalid server address " + host);
    }
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return UnavailableError(StrFormat("connect %s:%d: %s", host.c_str(),
                                        port, std::strerror(errno)));
    }
    return OkStatus();
  }

  [[nodiscard]] StatusOr<JsonValue> Call(const JsonValue& request) {
    RETURN_IF_ERROR(WriteFrame(fd_, request.Write()));
    ASSIGN_OR_RETURN(std::string payload, ReadFrame(fd_));
    return ParseJson(payload);
  }

 private:
  int fd_ = -1;
};

StatusOr<std::vector<int64_t>> ParseSourceList(const std::string& spec) {
  std::vector<int64_t> sources;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(start, comma - start);
    if (!token.empty()) {
      char* end = nullptr;
      const long long value = std::strtoll(token.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') {
        return InvalidArgumentError("bad source id '" + token +
                                    "' in --sources");
      }
      sources.push_back(value);
    }
    start = comma + 1;
  }
  if (sources.empty()) {
    return InvalidArgumentError("--sources must list at least one id");
  }
  return sources;
}

// Renders a topk response in the `crashsim_cli topk` output format.
int PrintOnceResponse(const JsonValue& response) {
  // A status name the taxonomy does not know marks an unparseable response.
  const StatusCode code = StatusCodeFromName(response.GetString("status", ""))
                              .value_or(StatusCode::kDataLoss);
  if (code != StatusCode::kOk) {
    return FailStatus(Status(code, response.GetString("message", "")));
  }
  const JsonValue* nodes = response.Find("nodes");
  const JsonValue* scores = response.Find("scores");
  if (nodes == nullptr || scores == nullptr ||
      nodes->items().size() != scores->items().size()) {
    return FailStatus(DataLossError("malformed topk response"));
  }
  std::vector<std::pair<double, int64_t>> ranking;
  for (size_t i = 0; i < nodes->items().size(); ++i) {
    ranking.emplace_back(scores->items()[i].as_number(),
                         nodes->items()[i].as_int());
  }
  PrintRanking(response.GetInt("k", 0), response.GetInt("source", 0),
               ranking);
  // epsilon_achieved serialises as null when infinite (zero trials done).
  const JsonValue* eps = response.Find("epsilon_achieved");
  PrintAnytimeFooter(response.GetInt("trials_done", 0),
                     response.GetInt("trials_target", 0),
                     (eps != nullptr && eps->is_number())
                         ? eps->as_number()
                         : std::numeric_limits<double>::infinity());
  return 0;
}

int RunReplay(int argc, char** argv) {
  FlagSet flags;
  flags.DefineString("host", "127.0.0.1", "crashsim_serve address");
  flags.DefineIntInRange("port", 0, 0, 65535, "crashsim_serve query port");
  flags.DefineIntInRange("clients", 8, 1, 1024,
                         "concurrent replay connections");
  flags.DefineIntInRange("requests", 32, 1, 1000000,
                         "requests sent per client");
  flags.DefineString("mode", "closed",
                     "closed (back-to-back) | open (fixed arrival rate; "
                     "latency measured from the intended send time, so "
                     "coordinated omission shows up as it should)");
  flags.DefineDouble("rate", 50.0, "open mode: arrivals per second per client");
  flags.DefineString("sources", "",
                     "comma-separated original source ids; the FIRST is the "
                     "hot key chosen with --hot_fraction");
  flags.DefineDouble("hot_fraction", 0.8,
                     "probability a request targets the hot (first) source");
  flags.DefineIntInRange("k", 10, 1, 1000000, "top-k per request");
  flags.DefineIntInRange("timeout_ms", 0, 0, 86400000,
                         "per-request deadline forwarded to the server");
  flags.DefineInt("seed", 1, "workload RNG seed");
  flags.DefineBool("once", false,
                   "send a single topk request and print it in the "
                   "`crashsim_cli topk` output format (for diffing)");
  flags.DefineBool("tolerate_eof", false,
                   "treat transport errors (server draining mid-run) as "
                   "shed responses instead of failures");
  flags.DefineString("latency_out", "",
                     "write a per-request CSV: client-side latency plus the "
                     "server's stage breakdown (queue/cache/walk/serialize) "
                     "echoed in each response");
  if (!flags.Parse(argc, argv)) return 1;
  if (flags.GetInt("port") == 0) return Fail("--port is required");
  const auto sources_or = ParseSourceList(flags.GetString("sources"));
  if (!sources_or.ok()) return FailStatus(sources_or.status());
  const std::vector<int64_t>& sources = *sources_or;
  const std::string host = flags.GetString("host");
  const int port = static_cast<int>(flags.GetInt("port"));
  const int64_t k = flags.GetInt("k");
  const int64_t timeout_ms = flags.GetInt("timeout_ms");

  const auto make_request = [&](int64_t source) {
    JsonValue request = JsonValue::Object();
    request.Set("op", JsonValue(std::string("topk")));
    request.Set("source", JsonValue(source));
    request.Set("k", JsonValue(k));
    if (timeout_ms > 0) request.Set("timeout_ms", JsonValue(timeout_ms));
    return request;
  };

  if (flags.GetBool("once")) {
    ServeClient client;
    if (Status s = client.Connect(host, port); !s.ok()) return FailStatus(s);
    const auto response = client.Call(make_request(sources[0]));
    if (!response.ok()) return FailStatus(response.status());
    return PrintOnceResponse(*response);
  }

  const std::string mode = flags.GetString("mode");
  if (mode != "closed" && mode != "open") {
    return Fail("--mode must be closed or open");
  }
  const bool open_loop = mode == "open";
  const double rate = flags.GetDouble("rate");
  if (open_loop && rate <= 0.0) return Fail("open mode needs --rate > 0");
  const int clients = static_cast<int>(flags.GetInt("clients"));
  const int64_t requests = flags.GetInt("requests");
  const double hot_fraction = flags.GetDouble("hot_fraction");
  const uint64_t base_seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const bool tolerate_eof = flags.GetBool("tolerate_eof");

  // One CSV row per completed request: the client-observed latency next to
  // the server's own stage split, so "slow at the client, fast at the
  // server" (network/queueing) separates from "slow inside the engine".
  struct LatencyRow {
    int64_t request_id = 0;
    int client = 0;
    int64_t source = 0;
    std::string status;
    double client_ms = 0.0;
    double queue_ms = 0.0;
    double cache_ms = 0.0;
    double walk_ms = 0.0;
    double serialize_ms = 0.0;
  };
  const std::string latency_out = flags.GetString("latency_out");

  std::mutex tally_mu;
  std::map<std::string, int64_t> by_status;  // under tally_mu
  std::vector<double> latencies_ms;          // under tally_mu
  std::vector<LatencyRow> rows;              // under tally_mu
  Status connect_error;                      // under tally_mu

  const Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      ServeClient client;
      if (Status s = client.Connect(host, port); !s.ok()) {
        const std::lock_guard<std::mutex> lock(tally_mu);
        if (connect_error.ok()) connect_error = s;
        return;
      }
      Rng rng(base_seed + static_cast<uint64_t>(c) * 7919);
      std::map<std::string, int64_t> local_status;
      std::vector<double> local_ms;
      std::vector<LatencyRow> local_rows;
      local_ms.reserve(static_cast<size_t>(requests));
      const auto start = std::chrono::steady_clock::now();
      for (int64_t q = 0; q < requests; ++q) {
        int64_t source = sources[0];
        if (sources.size() > 1 && rng.NextDouble() >= hot_fraction) {
          source = sources[1 + rng.NextU64() % (sources.size() - 1)];
        }
        auto intended = start;
        if (open_loop) {
          intended = start + std::chrono::microseconds(static_cast<int64_t>(
                                 static_cast<double>(q) * 1e6 / rate));
          std::this_thread::sleep_until(intended);
        }
        const Stopwatch timer;
        const auto response = client.Call(make_request(source));
        double elapsed_ms = timer.ElapsedSeconds() * 1e3;
        if (open_loop) {
          // Open loop charges queueing delay behind the intended schedule.
          elapsed_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - intended)
                           .count();
        }
        if (!response.ok()) {
          ++local_status[tolerate_eof ? "TRANSPORT_TOLERATED"
                                      : std::string(StatusCodeName(
                                            response.status().code()))];
          break;  // the connection is gone either way
        }
        local_ms.push_back(elapsed_ms);
        ++local_status[response->GetString("status", "?")];
        if (!latency_out.empty()) {
          LatencyRow row;
          row.request_id = response->GetInt("request_id", 0);
          row.client = c;
          row.source = source;
          row.status = response->GetString("status", "?");
          row.client_ms = elapsed_ms;
          if (const JsonValue* stages = response->Find("stages");
              stages != nullptr && stages->is_object()) {
            row.queue_ms = stages->GetDouble("queue_ms", 0.0);
            row.cache_ms = stages->GetDouble("cache_ms", 0.0);
            row.walk_ms = stages->GetDouble("walk_ms", 0.0);
            row.serialize_ms = stages->GetDouble("serialize_ms", 0.0);
          }
          local_rows.push_back(std::move(row));
        }
      }
      const std::lock_guard<std::mutex> lock(tally_mu);
      for (const auto& [name, count] : local_status) by_status[name] += count;
      latencies_ms.insert(latencies_ms.end(), local_ms.begin(),
                          local_ms.end());
      rows.insert(rows.end(), std::make_move_iterator(local_rows.begin()),
                  std::make_move_iterator(local_rows.end()));
    });
  }
  for (std::thread& t : workers) t.join();
  const double wall_seconds = wall.ElapsedSeconds();
  if (!connect_error.ok()) return FailStatus(connect_error);

  std::printf("replay: %d clients x %lld requests (%s) -> %s:%d\n", clients,
              static_cast<long long>(requests), mode.c_str(), host.c_str(),
              port);
  std::printf("outcomes:");
  for (const auto& [name, count] : by_status) {
    std::printf("  %s %lld", name.c_str(), static_cast<long long>(count));
  }
  std::printf("\n");
  PrintLatencyPercentiles(&latencies_ms);
  std::printf("throughput: %.1f req/s over %.2f s\n",
              wall_seconds > 0.0
                  ? static_cast<double>(latencies_ms.size()) / wall_seconds
                  : 0.0,
              wall_seconds);
  if (!latency_out.empty()) {
    std::sort(rows.begin(), rows.end(),
              [](const LatencyRow& a, const LatencyRow& b) {
                return a.request_id < b.request_id;
              });
    std::FILE* csv = std::fopen(latency_out.c_str(), "w");
    if (csv == nullptr) {
      return Fail(("cannot write --latency_out file " + latency_out).c_str());
    }
    std::fprintf(csv,
                 "request_id,client,source,status,client_ms,server_queue_ms,"
                 "server_cache_ms,server_walk_ms,server_serialize_ms\n");
    for (const LatencyRow& row : rows) {
      std::fprintf(csv, "%lld,%d,%lld,%s,%.3f,%.3f,%.3f,%.3f,%.3f\n",
                   static_cast<long long>(row.request_id), row.client,
                   static_cast<long long>(row.source), row.status.c_str(),
                   row.client_ms, row.queue_ms, row.cache_ms, row.walk_ms,
                   row.serialize_ms);
    }
    std::fclose(csv);
    std::printf("latency csv: %zu rows -> %s\n", rows.size(),
                latency_out.c_str());
  }
  // Non-OK terminal outcomes fail the run unless explicitly tolerated.
  for (const auto& [name, count] : by_status) {
    if (name != "OK" && name != "TRANSPORT_TOLERATED" && count > 0) {
      return ExitCodeFor(
          StatusCodeFromName(name).value_or(StatusCode::kDataLoss));
    }
  }
  return 0;
}

int RunGenerate(int argc, char** argv) {
  FlagSet flags;
  flags.DefineString("dataset", "as733",
                     "as733 | as-caida | wiki-vote | hepth | hepph");
  flags.DefineDouble("scale", 0.05, "fraction of the published size");
  flags.DefineInt("snapshots", 0, "snapshot count override");
  flags.DefineInt("seed", 7, "generator seed");
  flags.DefineString("out", "", "output temporal edge-list path");
  if (!flags.Parse(argc, argv)) return 1;
  if (flags.GetString("out").empty()) return Fail("--out is required");

  const Dataset ds = MakeDataset(flags.GetString("dataset"),
                                 flags.GetDouble("scale"),
                                 static_cast<int>(flags.GetInt("snapshots")),
                                 static_cast<uint64_t>(flags.GetInt("seed")));
  std::ofstream out(flags.GetString("out"));
  if (!out) return Fail("cannot write " + flags.GetString("out"));
  WriteTemporalEdgeList(ds.temporal, out);
  std::printf("wrote %s stand-in: %d nodes, %lld edges, %d snapshots -> %s\n",
              ds.spec.table_name.c_str(), ds.spec.nodes,
              static_cast<long long>(ds.spec.edges), ds.spec.snapshots,
              flags.GetString("out").c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: crashsim_cli "
               "<stats|topk|temporal|replay|generate> "
               "[flags]\n"
               "run a subcommand with --help for its flags\n");
  return 1;
}

}  // namespace
}  // namespace crashsim

int main(int argc, char** argv) {
  if (argc < 2) return crashsim::Usage();
  const std::string command = argv[1];
  // Shift argv so each subcommand parses its own flags.
  if (command == "stats") return crashsim::RunStats(argc - 1, argv + 1);
  if (command == "topk") return crashsim::RunTopK(argc - 1, argv + 1);
  if (command == "temporal") return crashsim::RunTemporal(argc - 1, argv + 1);
  if (command == "replay") return crashsim::RunReplay(argc - 1, argv + 1);
  if (command == "generate") return crashsim::RunGenerate(argc - 1, argv + 1);
  return crashsim::Usage();
}
