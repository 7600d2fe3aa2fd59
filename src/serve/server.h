#ifndef CRASHSIM_SERVE_SERVER_H_
#define CRASHSIM_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/crashsim.h"
#include "core/executor.h"
#include "core/query_stats.h"
#include "core/snapshot_diagonals.h"
#include "core/tree_cache.h"
#include "graph/graph_io.h"
#include "serve/json.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace crashsim {

class EventLog;  // util/event_log.h

// crashsim_serve: the always-on query service.
//
// One process binds a static graph (and optionally its temporal variant)
// once, then answers any number of concurrent top-k and temporal queries
// over a length-prefixed JSON protocol (serve/protocol.h, docs/SERVING.md).
// Every query routes through the QueryExecutor — admission queue, deadline
// shedding, degradation, retries, MemoryBudget — and top-k queries share
// revReach trees through the TreeCache, so N concurrent queries on a hot
// source run one BuildRevReach, not N. Temporal queries likewise share each
// snapshot's corrected-mode diagonal through one SnapshotDiagonals.
//
// Determinism contract: with degradation disabled (degrade_at = 0) a topk
// response is bit-identical to `crashsim_cli topk` on the same graph with
// the same seed/options — the ctx-path scores are a pure function of
// (seed, source, candidate) and the shared tree is bit-identical to a
// per-query build. The CI smoke lane diffs exactly that.
//
// A second listener serves GET /metrics in Prometheus text format for
// scraping: this server's own serve.*, executor.* and cache.* ledgers
// (its Stats and latency histograms, the executor's and the cache's, read
// at scrape time, so a second Server in the process never adds to them)
// plus the process-wide registry, and the debug endpoints GET /statusz
// (uptime, build info, executor ledger, cache occupancy, rolling
// per-minute latency percentiles, SLO burn) and GET /tracez (the most
// recent sampled request span trees). Unknown paths get 404, non-GET
// methods 405, and request heads split across arbitrarily many writes
// still parse.
//
// One record per request (docs/OBSERVABILITY.md): every request is
// assigned a monotonically increasing request_id at ingress, stamped on
// QueryContext and carried by a per-request RequestTrace through the
// executor, tree cache, engine, and ParallelFor shards. Each op handler
// returns a typed Reply — status, op-specific answer fields, and the stage
// record (executor verdicts, queue / cache / walk / serialize split,
// QueryStats). HandleRequest writes the common response fields from it and
// passes it to one Observe() call, which feeds every sink: the request and
// error counters, the per-op latency histograms and rolling windows, the
// SLO window, the slow-query EventLog line, and the /tracez ring.

struct ServerOptions {
  // TCP listen address. Port 0 binds an ephemeral port (tests, smoke);
  // the bound port is reported by port() after Start().
  std::string host = "127.0.0.1";
  int port = 0;
  // /metrics HTTP listener; port 0 = ephemeral, -1 disables the listener.
  int metrics_port = 0;
  // Accepted connections beyond this are closed immediately after accept
  // (the executor's admission queue guards query concurrency; this guards
  // thread count).
  int max_connections = 64;
  // Hard ceiling on requested k.
  int64_t max_k = 1'000'000;

  // --- request-scoped observability ---
  // Structured event sink (util/event_log.h), borrowed — must outlive the
  // server. nullptr disables the slow-query log.
  EventLog* event_log = nullptr;
  // Requests slower than this (or finishing non-OK) emit a slow_query
  // event. 0 logs every request; -1 disables the slow-query log entirely.
  int64_t slow_query_ms = 500;
  // /tracez retains the most recent this-many sampled request span trees;
  // 0 disables per-request trace collection entirely.
  int tracez_capacity = 64;
  // Every Nth request is sampled into /tracez even when fast and OK
  // (slow/non-OK requests are always retained); 0 = only slow ones.
  int tracez_sample_every = 16;
  // /statusz SLO threshold: the burn rate is the fraction of the rolling
  // window's query requests slower than this.
  int64_t slo_ms = 500;

  // executor.default_deadline_ms is the deadline of requests that do not
  // carry timeout_ms (0 = none).
  ExecutorOptions executor;
  // capacity_bytes is honoured; c / prune_threshold are overridden from the
  // engine options so cache keys can never disagree with the engine.
  TreeCacheOptions cache;
  CrashSimOptions engine;

  [[nodiscard]] Status Validate() const;
};

class Server {
 public:
  // Takes ownership of the loaded graph(s). `temporal` may be empty; the
  // temporal endpoint then answers kInvalidArgument.
  Server(LoadedGraph graph, std::optional<LoadedTemporalGraph> temporal,
         const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Checks the options, binds the engine to the graph (the corrected-mode
  // d(w) estimate), builds the tree cache, the snapshot diagonal table and
  // the executor, then binds the listeners and spawns the accept threads.
  // kInvalidArgument on bad options (nothing is built), kUnavailable when a
  // port cannot be bound.
  [[nodiscard]] Status Start();

  // Graceful shutdown: stop accepting, let every in-flight request finish
  // and flush its response, then join all connection threads. Idempotent.
  // Blocked threads are woken through their sockets (shutdown(2) on the
  // listeners and on every live connection's read side), not by polling.
  void Shutdown();

  // Bound ports, valid after Start() (0 / -1 when not listening).
  int port() const { return port_; }
  int metrics_port() const { return metrics_port_; }

  struct Stats {
    int64_t connections_accepted = 0;
    int64_t connections_rejected = 0;
    int64_t requests = 0;
    int64_t errors = 0;  // responses with a non-OK status
  };
  Stats stats() const;

  // Valid after a successful Start().
  const TreeCache& tree_cache() const { return *cache_; }
  const QueryExecutor& executor() const { return *executor_; }

 private:
  // One served request: what its handler answered plus the record every
  // sink reads. Error paths return just the status (implicit conversion).
  struct Reply {
    Reply() = default;
    Reply(Status s) : status(std::move(s)) {}  // NOLINT: Reply{status}

    Status status;
    // Op-specific response fields. Null when the request was refused
    // before an answer existed; the response then carries the common
    // fields only (plus `admitted` when it reached the executor).
    JsonValue answer;
    std::string op;           // "" until dispatch resolves it
    double elapsed_ms = 0.0;  // ingress to serialized response
    bool ran = false;         // submitted to the executor
    bool admitted = true;
    bool degraded = false;
    int retries = 0;
    double queue_ms = 0.0;      // executor admission-queue wait
    double run_ms = 0.0;        // executor run time
    double cache_ms = 0.0;      // inside TreeCache::GetOrBuild
    double walk_ms = 0.0;       // run time minus cache time
    double serialize_ms = 0.0;  // answer and response assembly
    Stopwatch answer_timer;     // restarted when the engine returns
    // The query's own record, set when it ran; rendered as
    // crashsim.query_stats.v1 only for the slow-query log.
    QueryStats stats;
    QueryStatsEnvelope envelope;
  };

  // A query op's source and request-scoped context, resolved once by the
  // shared prologue in Dispatch.
  struct Query {
    const JsonValue& request;
    bool temporal;
    int64_t original_source;
    NodeId source;
    QueryContext* ctx;  // carries the deadline, request id and stats sink
  };

  struct Connection;

  void AcceptLoop();
  void MetricsLoop();
  // What an accept loop does after accept() failed with `err`: false ends
  // the loop (Shutdown() shut the listener down); otherwise it retries, so
  // no per-connection or resource error ends accepting.
  bool AcceptFailed(int err);
  void ServeConnection(int fd, Connection* conn);
  // Handles one request payload; always returns a serialized response.
  std::string HandleRequest(const std::string& payload);
  Reply Dispatch(const std::string& op, const JsonValue& request,
                 uint64_t request_id);
  Reply HandleTopK(const Query& query);
  Reply HandleTemporal(const Query& query);
  // Runs a query op through the executor and fills the reply's status and
  // stage record from the outcome.
  QueryOutcome RunQuery(const Query& query,
                        std::function<PartialResult(QueryContext*)> run,
                        Reply* reply);
  // Feeds one finished request to every sink; `trace` is its quiesced span
  // collector (null when /tracez is off).
  void Observe(uint64_t request_id, const Reply& reply,
               std::shared_ptr<const class RequestTrace> trace);
  // /metrics body (Prometheus text).
  std::string BuildMetricsText() const;
  // /statusz and /tracez bodies (serialized JSON).
  std::string BuildStatuszJson() const;
  std::string BuildTracezJson() const;

  const LoadedGraph graph_;
  const std::optional<LoadedTemporalGraph> temporal_;
  const ServerOptions options_;
  // Original id -> internal id, per graph (temporal: empty without one).
  const std::unordered_map<int64_t, NodeId> id_map_;
  const std::unordered_map<int64_t, NodeId> temporal_id_map_;

  // Built by Start(), after the options passed Validate().
  std::unique_ptr<CrashSim> engine_;       // shared; ctx-path is thread-safe
  std::unique_ptr<TreeCache> cache_;
  // Per-snapshot d(w) of the temporal graph, shared by every temporal
  // request's CrashSimT; fills lazily. Null without a temporal graph.
  std::unique_ptr<SnapshotDiagonals> diagonals_;
  std::unique_ptr<QueryExecutor> executor_;

  // Request-id source: ingress assigns next_request_id_ + 1, so ids start
  // at 1 and 0 stays the "not request-scoped" sentinel of QueryContext.
  std::atomic<uint64_t> next_request_id_{0};
  std::unique_ptr<class TracezRing> tracez_;  // null when capacity == 0
  // Cumulative per-op latency behind /metrics (serve.topk_ms and
  // serve.temporal_ms), present from start-up.
  FixedHistogram topk_ms_{ExponentialBuckets(1, 2.0, 14)};
  FixedHistogram temporal_ms_{ExponentialBuckets(1, 2.0, 14)};
  // Rolling per-minute latency windows behind /statusz: per-op percentiles
  // plus a two-bucket ({slo_ms}) window for the SLO burn rate.
  std::unique_ptr<SlidingHistogram> topk_window_;
  std::unique_ptr<SlidingHistogram> temporal_window_;
  std::unique_ptr<SlidingHistogram> slo_window_;
  std::atomic<int64_t> slo_breaches_total_{0};
  int64_t start_ns_ = 0;  // Start() time, for /statusz uptime
  double bind_ms_ = 0.0;  // Start()'s engine Bind, for /statusz startup

  std::atomic<bool> stop_{false};
  std::atomic<bool> shutdown_done_{false};
  int listen_fd_ = -1;
  int metrics_fd_ = -1;
  int port_ = 0;
  int metrics_port_ = -1;
  std::thread accept_thread_;
  std::thread metrics_thread_;
  // One entry per spawned connection thread; `done` lets the accept loop
  // reap finished threads instead of holding every handle until shutdown.
  struct Connection {
    std::thread thread;
    // The connection's socket, guarded by conn_mu_: -1 once ServeConnection
    // closed it, so Shutdown never shuts down a reused fd number.
    int fd = -1;
    std::atomic<bool> done{false};
  };
  Mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_
      CRASHSIM_GUARDED_BY(conn_mu_);
  // The /metrics connection whose request MetricsLoop is serving, or -1; like
  // Connection::fd, so Shutdown can wake a scraper that sends nothing.
  int scrape_fd_ CRASHSIM_GUARDED_BY(conn_mu_) = -1;
  std::atomic<int> active_connections_{0};

  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> connections_rejected_{0};
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> errors_{0};
};

}  // namespace crashsim

#endif  // CRASHSIM_SERVE_SERVER_H_
