#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/baseline_temporal.h"
#include "core/crashsim_t.h"
#include "core/query_stats.h"
#include "core/temporal_query.h"
#include "serve/debugz.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "util/event_log.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/top_k.h"
#include "util/trace.h"

namespace crashsim {
namespace {

// Binds a listening TCP socket on host:port (port 0 = ephemeral). On
// success stores the fd and the actually bound port.
Status BindListener(const std::string& host, int port, int* out_fd,
                    int* out_port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return UnavailableError(
        StrFormat("socket failed: %s", std::strerror(errno)));
  }
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return InvalidArgumentError("invalid listen address " + host);
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = UnavailableError(StrFormat(
        "bind %s:%d failed: %s", host.c_str(), port, std::strerror(errno)));
    close(fd);
    return s;
  }
  if (listen(fd, 128) != 0) {
    const Status s = UnavailableError(
        StrFormat("listen failed: %s", std::strerror(errno)));
    close(fd);
    return s;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const Status s = UnavailableError(
        StrFormat("getsockname failed: %s", std::strerror(errno)));
    close(fd);
    return s;
  }
  *out_fd = fd;
  *out_port = static_cast<int>(ntohs(bound.sin_port));
  return OkStatus();
}

// Largest magnitude a JSON number (a double) holds exactly as an integer.
constexpr int64_t kMaxExactInt = int64_t{1} << 53;
// A request deadline may be as long as --default_timeout_ms: one day.
constexpr int64_t kMaxTimeoutMs = 86'400'000;

// Reads integer field `key` of an untrusted request: `fallback` when
// absent, INVALID_ARGUMENT unless the value is a whole number in [lo, hi].
// The bounds are clamped to +-2^53, so the cast below is exact.
StatusOr<int64_t> ReadInt(const JsonValue& request, const char* key,
                          int64_t fallback, int64_t lo, int64_t hi) {
  const JsonValue* value = request.Find(key);
  if (value == nullptr) return fallback;
  lo = std::max(lo, -kMaxExactInt);
  hi = std::min(hi, kMaxExactInt);
  if (value->is_number()) {
    const double d = value->as_number();
    if (d == std::trunc(d) && d >= static_cast<double>(lo) &&
        d <= static_cast<double>(hi)) {
      return static_cast<int64_t>(d);
    }
  }
  return InvalidArgumentError(StrFormat(
      "%s must be a whole number in [%lld, %lld], got %s", key,
      static_cast<long long>(lo), static_cast<long long>(hi),
      value->Write().c_str()));
}

// Reads number field `key` of an untrusted request: `fallback` when absent,
// INVALID_ARGUMENT when present with another JSON type. Value domains stay
// with the query's own validation.
StatusOr<double> ReadDouble(const JsonValue& request, const char* key,
                            double fallback) {
  const JsonValue* value = request.Find(key);
  if (value == nullptr) return fallback;
  if (value->is_number()) return value->as_number();
  return InvalidArgumentError(StrFormat("%s must be a number, got %s", key,
                                        value->Write().c_str()));
}

// Reads string field `key` of an untrusted request, like ReadDouble.
StatusOr<std::string> ReadString(const JsonValue& request, const char* key,
                                 std::string fallback) {
  const JsonValue* value = request.Find(key);
  if (value == nullptr) return fallback;
  if (value->is_string()) return value->as_string();
  return InvalidArgumentError(StrFormat("%s must be a string, got %s", key,
                                        value->Write().c_str()));
}

std::unordered_map<int64_t, NodeId> IndexIds(
    const std::vector<int64_t>& original_ids) {
  std::unordered_map<int64_t, NodeId> index;
  for (size_t i = 0; i < original_ids.size(); ++i) {
    index.emplace(original_ids[i], static_cast<NodeId>(i));
  }
  return index;
}

}  // namespace

Status ServerOptions::Validate() const {
  if (port < 0 || port > 65535) {
    return InvalidArgumentError(StrFormat("port must be in [0, 65535], got %d",
                                          port));
  }
  if (metrics_port < -1 || metrics_port > 65535) {
    return InvalidArgumentError(StrFormat(
        "metrics_port must be in [-1, 65535], got %d", metrics_port));
  }
  if (max_connections < 1) {
    return InvalidArgumentError(StrFormat(
        "max_connections must be >= 1, got %d", max_connections));
  }
  if (max_k < 1) {
    return InvalidArgumentError(
        StrFormat("max_k must be >= 1, got %lld",
                  static_cast<long long>(max_k)));
  }
  if (slow_query_ms < -1) {
    return InvalidArgumentError(
        StrFormat("slow_query_ms must be >= -1, got %lld",
                  static_cast<long long>(slow_query_ms)));
  }
  if (tracez_capacity < 0) {
    return InvalidArgumentError(StrFormat(
        "tracez_capacity must be >= 0, got %d", tracez_capacity));
  }
  if (tracez_sample_every < 0) {
    return InvalidArgumentError(StrFormat(
        "tracez_sample_every must be >= 0, got %d", tracez_sample_every));
  }
  if (slo_ms < 1) {
    return InvalidArgumentError(StrFormat(
        "slo_ms must be >= 1, got %lld", static_cast<long long>(slo_ms)));
  }
  RETURN_IF_ERROR(executor.Validate().WithContext("executor options"));
  RETURN_IF_ERROR(engine.Validate().WithContext("engine options"));
  TreeCacheOptions aligned = cache;
  aligned.c = engine.mc.c;
  aligned.prune_threshold = engine.tree_prune_threshold;
  RETURN_IF_ERROR(aligned.Validate().WithContext("cache options"));
  return OkStatus();
}

Server::Server(LoadedGraph graph, std::optional<LoadedTemporalGraph> temporal,
               const ServerOptions& options)
    : graph_(std::move(graph)),
      temporal_(std::move(temporal)),
      options_(options),
      id_map_(IndexIds(graph_.original_ids)),
      temporal_id_map_(temporal_.has_value()
                           ? IndexIds(temporal_->original_ids)
                           : std::unordered_map<int64_t, NodeId>()) {
  if (options_.tracez_capacity > 0) {
    tracez_ = std::make_unique<TracezRing>(
        static_cast<size_t>(options_.tracez_capacity));
  }
  constexpr int kWindowSeconds = 60;
  topk_window_ = std::make_unique<SlidingHistogram>(
      ExponentialBuckets(1, 2.0, 14), kWindowSeconds);
  temporal_window_ = std::make_unique<SlidingHistogram>(
      ExponentialBuckets(1, 2.0, 14), kWindowSeconds);
  // Two buckets — (..slo] and (slo..] — so the window burn rate is exact
  // at the threshold rather than rounded to a percentile bucket.
  slo_window_ = std::make_unique<SlidingHistogram>(
      std::vector<int64_t>{std::max<int64_t>(options_.slo_ms, 1)},
      kWindowSeconds);
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  RETURN_IF_ERROR(options_.Validate());
  // Built only now: each of these CHECK-fails on options that Validate()
  // rejects.
  engine_ = std::make_unique<CrashSim>(options_.engine);
  const Stopwatch bind_timer;
  RETURN_IF_ERROR(engine_->Bind(&graph_.graph));
  bind_ms_ = bind_timer.ElapsedMillis();
  TreeCacheOptions cache_options = options_.cache;
  cache_options.c = options_.engine.mc.c;
  cache_options.prune_threshold = options_.engine.tree_prune_threshold;
  cache_ = std::make_unique<TreeCache>(&graph_.graph, cache_options);
  if (temporal_.has_value()) {
    diagonals_ = std::make_unique<SnapshotDiagonals>(&temporal_->graph,
                                                     options_.engine);
  }
  executor_ = std::make_unique<QueryExecutor>(options_.executor);
  start_ns_ = SteadyNowNanos();
  RETURN_IF_ERROR(
      BindListener(options_.host, options_.port, &listen_fd_, &port_));
  if (options_.metrics_port >= 0) {
    Status s = BindListener(options_.host, options_.metrics_port, &metrics_fd_,
                            &metrics_port_);
    if (!s.ok()) {
      close(listen_fd_);
      listen_fd_ = -1;
      return s;
    }
    metrics_thread_ = std::thread([this] { MetricsLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  CRASHSIM_LOG(Info) << "crashsim_serve listening on " << options_.host << ":"
                     << port_ << " (metrics port " << metrics_port_ << ", "
                     << graph_.graph.num_nodes() << " nodes, "
                     << graph_.graph.num_edges() << " edges)";
  return OkStatus();
}

void Server::Shutdown() {
  bool expected = false;
  if (!shutdown_done_.compare_exchange_strong(expected, true)) return;
  stop_.store(true);
  // A thread blocked in accept() on a listener that is shut down returns
  // EINVAL. The fds stay open until their threads are joined, so neither
  // loop can see its fd number reused.
  for (const int fd : {listen_fd_, metrics_fd_}) {
    if (fd >= 0) (void)shutdown(fd, SHUT_RDWR);
  }
  {
    // A scrape whose request head is still being read ends at once; one
    // being answered is answered in full.
    const MutexLock lock(conn_mu_);
    if (scrape_fd_ >= 0) (void)shutdown(scrape_fd_, SHUT_RD);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  for (int* fd : {&listen_fd_, &metrics_fd_}) {
    if (*fd >= 0) close(*fd);
    *fd = -1;
  }
  // No connection can appear now. After SHUT_RD a blocked recv returns 0,
  // so an idle connection ends at once, while a request being handled is
  // still answered in full (the drain guarantee).
  std::vector<std::unique_ptr<Connection>> pending;
  {
    const MutexLock lock(conn_mu_);
    for (const auto& conn : connections_) {
      if (conn->fd >= 0) (void)shutdown(conn->fd, SHUT_RD);
    }
    pending.swap(connections_);
  }
  for (const auto& conn : pending) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

bool Server::AcceptFailed(int err) {
  if (stop_.load()) return false;  // the listener was shut down
  // An interrupted call, a failure of one pending connection, or a network
  // error accept(2) says to treat like EAGAIN: retry at once.
  constexpr int kRetryNow[] = {EINTR, EAGAIN, ECONNABORTED, EPROTO, ENETDOWN,
                               ENOPROTOOPT, EHOSTDOWN, ENONET, EHOSTUNREACH,
                               EOPNOTSUPP, ENETUNREACH};
  if (std::ranges::find(kRetryNow, err) != std::end(kRetryNow)) return true;
  // EMFILE, ENFILE, ENOBUFS, ENOMEM: the connection stays queued and every
  // retry fails until fds or memory free up, so pause instead of spinning.
  connections_rejected_.fetch_add(1, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  return true;
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (AcceptFailed(errno)) continue;
      return;
    }
    if (active_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      close(fd);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    const MutexLock lock(conn_mu_);
    // Reap finished connection threads so a long-lived server does not
    // accumulate one joinable handle per connection it ever served.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        (*it)->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    auto conn = std::make_unique<Connection>();
    Connection* raw = conn.get();
    raw->fd = fd;
    connections_.push_back(std::move(conn));
    raw->thread = std::thread([this, fd, raw] {
      ServeConnection(fd, raw);
      active_connections_.fetch_sub(1, std::memory_order_relaxed);
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void Server::ServeConnection(int fd, Connection* conn) {
  // Shutdown() wakes a blocked read with shutdown(SHUT_RD), but Linux still
  // delivers bytes that arrive after it, so stop_ is checked before each
  // frame: a client that keeps sending cannot hold the drain open.
  while (!stop_.load()) {
    StatusOr<std::string> payload = ReadFrame(fd, kMaxRequestFrameBytes);
    if (!payload.ok()) {
      // kUnavailable: the peer closed, or shutdown woke an idle read (the
      // normal end). Anything else, a frame cut short by shutdown too, is a
      // framing fault; best-effort report it, then drop the connection.
      if (payload.status().code() != StatusCode::kUnavailable) {
        JsonValue error = JsonValue::Object();
        error.Set("status", JsonValue(std::string(
                                StatusCodeName(payload.status().code()))));
        error.Set("message", JsonValue(payload.status().message()));
        (void)WriteFrame(fd, error.Write());
      }
      break;
    }
    // A request read before shutdown is answered in full (the drain
    // guarantee): SHUT_RD leaves the write side open.
    const std::string response = HandleRequest(*payload);
    if (Status s = WriteFrame(fd, response); !s.ok()) break;
  }
  // Under conn_mu_, so Shutdown never shuts down a reused fd number.
  const MutexLock lock(conn_mu_);
  close(fd);
  conn->fd = -1;
}

std::string Server::HandleRequest(const std::string& payload) {
  // Ingress: assign the request id and install the per-request trace
  // collector before any span opens, so the ingress span, the executor
  // spans (queries run synchronously on this thread), and the ParallelFor
  // worker shards (the scope propagates through Shard) all land in one
  // reassemblable tree. Workers are joined before Observe reads it
  // (read-after-quiesce contract). Without /tracez nothing is collected.
  const uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::shared_ptr<RequestTrace> rtrace =
      tracez_ != nullptr ? std::make_shared<RequestTrace>(
                               request_id, RequestTrace::kServeCapacity)
                         : nullptr;
  const Stopwatch timer;
  Reply reply;
  std::string out;
  {
    const TraceRequestScope trace_scope(rtrace.get());
    TRACE_SPAN("serve.request");
    JsonValue response = JsonValue::Object();
    StatusOr<JsonValue> request = ParseJson(payload);
    if (!request.ok()) {
      reply = request.status();
    } else if (!request->is_object()) {
      reply = InvalidArgumentError("request must be a JSON object");
    } else {
      if (const JsonValue* id = request->Find("id"); id != nullptr) {
        response.Set("id", *id);
      }
      const std::string op = request->GetString("op", "");
      reply = Dispatch(op, *request, request_id);
      reply.op = op;
    }

    // The fields every response carries, then the op's answer, then the
    // executor's verdicts and the stage split of an answered query.
    response.Set("status", JsonValue(std::string(
                               StatusCodeName(reply.status.code()))));
    if (!reply.status.ok()) {
      response.Set("message", JsonValue(reply.status.message()));
    }
    const bool answered = !reply.answer.is_null();
    if (answered) response.Set("op", JsonValue(reply.op));
    response.Set("request_id", JsonValue(static_cast<int64_t>(request_id)));
    if (reply.ran && !answered) {
      // Shed or failed before any answer existed: the admission verdict is
      // what the client's retry policy needs.
      response.Set("admitted", JsonValue(reply.admitted));
    }
    for (const auto& [key, value] : reply.answer.members()) {
      response.Set(key, value);
    }
    if (reply.ran && answered) {
      response.Set("retries", JsonValue(static_cast<int64_t>(reply.retries)));
      response.Set("queue_wait_ms", JsonValue(reply.queue_ms));
      response.Set("run_ms", JsonValue(reply.run_ms));
      reply.serialize_ms = reply.answer_timer.ElapsedMillis();
      JsonValue stages = JsonValue::Object();
      stages.Set("queue_ms", JsonValue(reply.queue_ms));
      stages.Set("cache_ms", JsonValue(reply.cache_ms));
      stages.Set("walk_ms", JsonValue(reply.walk_ms));
      stages.Set("serialize_ms", JsonValue(reply.serialize_ms));
      response.Set("stages", std::move(stages));
    }
    out = response.Write();
  }  // span closed, collector uninstalled: the trace is complete
  reply.elapsed_ms = timer.ElapsedMillis();
  Observe(request_id, reply, std::move(rtrace));
  return out;
}

Server::Reply Server::Dispatch(const std::string& op,
                               const JsonValue& request,
                               uint64_t request_id) {
  if (op == "ping") {
    Reply pong;
    pong.answer = JsonValue::Object();
    return pong;
  }
  const bool temporal = op == "temporal";
  if (!temporal && op != "topk") {
    return InvalidArgumentError("unknown op '" + op +
                                "' (expected ping | topk | temporal)");
  }
  if (temporal && !temporal_.has_value()) {
    return InvalidArgumentError("server was started without a temporal graph");
  }

  // The query ops' shared prologue: source, deadline, request context.
  ASSIGN_OR_RETURN(const int64_t original_source,
                   ReadInt(request, "source", -1, -kMaxExactInt, kMaxExactInt));
  const auto& ids = temporal ? temporal_id_map_ : id_map_;
  const auto it = ids.find(original_source);
  if (it == ids.end()) {
    return NotFoundError(StrFormat("source id %lld not present in the %s",
                                   static_cast<long long>(original_source),
                                   temporal ? "temporal graph" : "graph"));
  }
  ASSIGN_OR_RETURN(const int64_t timeout_ms,
                   ReadInt(request, "timeout_ms",
                           options_.executor.default_deadline_ms, 0,
                           kMaxTimeoutMs));
  // QueryContext is neither copyable nor movable; emplace the right ctor.
  std::optional<QueryContext> ctx;
  if (timeout_ms > 0) {
    ctx.emplace(std::chrono::milliseconds(timeout_ms));
  } else {
    ctx.emplace();
  }
  QueryStats stats;
  ctx->set_stats(&stats);
  ctx->set_request_id(request_id);
  const Query query{request, temporal, original_source, it->second, &*ctx};
  Reply reply = temporal ? HandleTemporal(query) : HandleTopK(query);
  reply.stats = std::move(stats);
  return reply;
}

QueryOutcome Server::RunQuery(const Query& query,
                              std::function<PartialResult(QueryContext*)> run,
                              Reply* reply) {
  QueryRequest request;
  request.ctx = query.ctx;
  request.run = std::move(run);
  QueryOutcome outcome = executor_->Execute(request);
  reply->answer_timer.Reset();

  // Stage split: engine run time divides into cache (inside GetOrBuild:
  // build, hit, or coalesced wait; temporal queries never use the cache)
  // and walk (everything else: the sweep on top-k, the trial loops of
  // CrashSim-T's snapshots on temporal).
  const QueryStats& stats = *query.ctx->stats();
  reply->status = outcome.result.status;
  reply->ran = true;
  reply->admitted = outcome.admitted;
  reply->degraded = outcome.degraded;
  reply->retries = outcome.retries;
  reply->queue_ms = outcome.queue_wait_seconds * 1e3;
  reply->run_ms = outcome.run_seconds * 1e3;
  reply->cache_ms = stats.cache_wait_seconds * 1e3;
  reply->walk_ms = std::max(0.0, reply->run_ms - reply->cache_ms);
  QueryStatsEnvelope& envelope = reply->envelope;
  envelope.query = query.temporal ? "temporal" : "topk";
  envelope.algo = query.temporal ? "crashsim-t" : "crashsim";
  envelope.n = query.temporal ? temporal_->graph.num_nodes()
                              : graph_.graph.num_nodes();
  envelope.m = query.temporal ? 0 : graph_.graph.num_edges();
  envelope.elapsed_seconds = outcome.queue_wait_seconds + outcome.run_seconds;
  return outcome;
}

Server::Reply Server::HandleTopK(const Query& query) {
  TRACE_SPAN("serve.topk");
  ASSIGN_OR_RETURN(const int64_t k,
                   ReadInt(query.request, "k", 10, 1, options_.max_k));
  const NodeId source = query.source;
  Reply reply;
  const QueryOutcome outcome = RunQuery(
      query,
      [this, source](QueryContext* ctx) -> PartialResult {
        // Shared-tree fast path: one BuildRevReach per hot source
        // process-wide; sweeping the shared tree is bit-identical to an
        // uncached SingleSource (the tree build is deterministic in the key
        // + cache params, and the sweep draws no random numbers).
        StatusOr<TreeCache::TreePtr> tree = cache_->GetOrBuild(
            source, engine_->LMax(), options_.engine.mode, ctx);
        if (!tree.ok()) {
          PartialResult r;
          r.status = tree.status();
          return r;
        }
        return engine_->SweepWithTree(**tree, ctx);
      },
      &reply);
  if (outcome.result.scores.empty()) return reply;  // no answer to give

  JsonValue nodes = JsonValue::Array();
  JsonValue scores = JsonValue::Array();
  for (const auto& [score, v] :
       SelectTopK(outcome.result.scores, source, static_cast<size_t>(k))) {
    nodes.Append(JsonValue(graph_.original_ids[static_cast<size_t>(v)]));
    scores.Append(JsonValue(score));
  }
  JsonValue& answer = reply.answer = JsonValue::Object();
  answer.Set("source", JsonValue(query.original_source));
  answer.Set("k", JsonValue(k));
  answer.Set("nodes", std::move(nodes));
  answer.Set("scores", std::move(scores));
  answer.Set("trials_done", JsonValue(outcome.result.trials_done));
  answer.Set("trials_target", JsonValue(outcome.result.trials_target));
  answer.Set("epsilon_achieved", JsonValue(outcome.result.epsilon_achieved));
  answer.Set("degraded", JsonValue(outcome.degraded));
  answer.Set("trial_fraction", JsonValue(outcome.trial_fraction));
  return reply;
}

Server::Reply Server::HandleTemporal(const Query& query) {
  TRACE_SPAN("serve.temporal");
  const TemporalGraph& tg = temporal_->graph;
  ASSIGN_OR_RETURN(const int64_t begin,
                   ReadInt(query.request, "begin", 0,
                           std::numeric_limits<int>::min(),
                           std::numeric_limits<int>::max()));
  ASSIGN_OR_RETURN(const int64_t end,
                   ReadInt(query.request, "end", -1, -kMaxExactInt,
                           std::numeric_limits<int>::max()));
  TemporalQuery temporal_query;
  temporal_query.source = query.source;
  temporal_query.begin_snapshot = static_cast<int>(begin);
  temporal_query.end_snapshot = ResolveEndSnapshot(end, tg.num_snapshots());
  ASSIGN_OR_RETURN(temporal_query.theta,
                   ReadDouble(query.request, "theta", 0.05));
  ASSIGN_OR_RETURN(temporal_query.trend_tolerance,
                   ReadDouble(query.request, "tolerance", 0.0));
  ASSIGN_OR_RETURN(const std::string kind,
                   ReadString(query.request, "kind", "threshold"));
  ASSIGN_OR_RETURN(temporal_query.kind, ParseTemporalQueryKind(kind));

  CrashSimTOptions temporal_options;
  temporal_options.crashsim = options_.engine;
  TemporalAnswer result;
  Reply reply;
  const QueryOutcome outcome = RunQuery(
      query,
      [&](QueryContext* ctx) -> PartialResult {
        // CrashSim-T keeps per-interval state, so each request gets its own
        // engine instance (the static engine_ stays untouched); the
        // snapshot diagonals it binds with come from the server-wide table.
        CrashSimT engine(temporal_options, diagonals_.get());
        result = engine.Answer(tg, temporal_query, ctx);
        PartialResult r;
        r.status = result.status;
        return r;
      },
      &reply);
  if (!outcome.admitted) return reply;

  JsonValue nodes = JsonValue::Array();
  for (const NodeId v : result.nodes) {
    nodes.Append(JsonValue(temporal_->original_ids[static_cast<size_t>(v)]));
  }
  JsonValue& answer = reply.answer = JsonValue::Object();
  answer.Set("source", JsonValue(query.original_source));
  answer.Set("kind", JsonValue(kind));
  answer.Set("begin",
             JsonValue(static_cast<int64_t>(temporal_query.begin_snapshot)));
  answer.Set("end",
             JsonValue(static_cast<int64_t>(temporal_query.end_snapshot)));
  answer.Set("nodes", std::move(nodes));
  answer.Set("snapshots_processed",
             JsonValue(static_cast<int64_t>(result.stats.snapshots_processed)));
  answer.Set("scores_computed", JsonValue(result.stats.scores_computed));
  return reply;
}

void Server::Observe(uint64_t request_id, const Reply& reply,
                     std::shared_ptr<const RequestTrace> trace) {
  const std::string status(StatusCodeName(reply.status.code()));
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (!reply.status.ok()) errors_.fetch_add(1, std::memory_order_relaxed);
  if (reply.op == "topk" || reply.op == "temporal") {
    const bool topk = reply.op == "topk";
    const auto latency = static_cast<int64_t>(reply.elapsed_ms);
    (topk ? topk_ms_ : temporal_ms_).Record(latency);
    (topk ? topk_window_ : temporal_window_)->Record(latency);
    slo_window_->Record(latency);
    if (latency > options_.slo_ms) {
      slo_breaches_total_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const bool slow =
      options_.slow_query_ms >= 0 &&
      (reply.elapsed_ms >= static_cast<double>(options_.slow_query_ms) ||
       !reply.status.ok());
  if (slow && options_.event_log != nullptr) {
    EventBuilder event("slow_query");
    event.UInt("request_id", request_id)
        .Str("op", reply.op)
        .Str("status", status)
        .Double("elapsed_ms", reply.elapsed_ms)
        .Double("queue_ms", reply.queue_ms)
        .Double("cache_ms", reply.cache_ms)
        .Double("walk_ms", reply.walk_ms)
        .Double("serialize_ms", reply.serialize_ms)
        .Bool("admitted", reply.admitted)
        .Bool("degraded", reply.degraded)
        .Int("retries", reply.retries);
    if (reply.ran) {
      event.Raw("query_stats", QueryStatsJson(reply.envelope, reply.stats));
    }
    options_.event_log->Log(event.Finish());
  }
  const int every = options_.tracez_sample_every;
  if (tracez_ != nullptr &&
      (slow || (every > 0 && request_id % every == 0))) {
    TracezRing::Entry entry;
    entry.request_id = request_id;
    entry.op = reply.op;
    entry.status = status;
    entry.elapsed_ms = reply.elapsed_ms;
    entry.slow = slow;
    entry.trace = std::move(trace);
    tracez_->Add(std::move(entry));
  }
}

void Server::MetricsLoop() {
  constexpr char kPrometheusType[] =
      "text/plain; version=0.0.4; charset=utf-8";
  for (;;) {
    const int fd = accept(metrics_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (AcceptFailed(errno)) continue;
      return;
    }
    {
      // Shutdown() sets stop_ before it looks for a scrape to wake, so a
      // scrape registered after that look finds stop_ set here.
      const MutexLock lock(conn_mu_);
      if (stop_.load()) {
        close(fd);
        return;
      }
      scrape_fd_ = fd;
    }
    // Minimal but tolerant HTTP: reassemble the head across split writes,
    // then route GET /metrics | /statusz | /tracez; 404 unknown paths, 405
    // non-GET methods.
    if (StatusOr<std::string> head = ReadHttpRequestHead(fd); head.ok()) {
      const HttpRequestLine line = ParseHttpRequestLine(*head);
      if (line.method != "GET") {
        SendHttpResponse(fd, "HTTP/1.1 405 Method Not Allowed", "text/plain",
                         "only GET is supported here\n");
      } else if (line.path == "/metrics") {
        SendHttpResponse(fd, "HTTP/1.1 200 OK", kPrometheusType,
                         BuildMetricsText());
      } else if (line.path == "/statusz") {
        SendHttpResponse(fd, "HTTP/1.1 200 OK", "application/json",
                         BuildStatuszJson());
      } else if (line.path == "/tracez") {
        SendHttpResponse(fd, "HTTP/1.1 200 OK", "application/json",
                         BuildTracezJson());
      } else {
        SendHttpResponse(fd, "HTTP/1.1 404 Not Found", "text/plain",
                         "served paths: /metrics /statusz /tracez\n");
      }
    }
    // Under conn_mu_, so Shutdown never shuts down a reused fd number.
    const MutexLock lock(conn_mu_);
    close(fd);
    scrape_fd_ = -1;
  }
}

std::string Server::BuildStatuszJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("schema", JsonValue(std::string("crashsim.statusz.v1")));
  out.Set("uptime_seconds",
          JsonValue(static_cast<double>(SteadyNowNanos() - start_ns_) / 1e9));

  // Start-up cost paid before the listener opened: the engine's Bind, which
  // in corrected mode is the d(w) estimate.
  JsonValue startup = JsonValue::Object();
  startup.Set("bind_ms", JsonValue(bind_ms_));
  out.Set("startup", std::move(startup));

  JsonValue build = JsonValue::Object();
  build.Set("compiler", JsonValue(std::string(__VERSION__)));
  build.Set("cxx_standard", JsonValue(static_cast<int64_t>(__cplusplus)));
#ifdef NDEBUG
  build.Set("assertions", JsonValue(false));
#else
  build.Set("assertions", JsonValue(true));
#endif
  out.Set("build", std::move(build));

  JsonValue graph = JsonValue::Object();
  graph.Set("nodes", JsonValue(static_cast<int64_t>(graph_.graph.num_nodes())));
  graph.Set("edges", JsonValue(graph_.graph.num_edges()));
  graph.Set("temporal_snapshots",
            JsonValue(static_cast<int64_t>(
                temporal_.has_value() ? temporal_->graph.num_snapshots() : 0)));
  out.Set("graph", std::move(graph));

  JsonValue server = JsonValue::Object();
  server.Set("connections_accepted",
             JsonValue(connections_accepted_.load(std::memory_order_relaxed)));
  server.Set("connections_rejected",
             JsonValue(connections_rejected_.load(std::memory_order_relaxed)));
  server.Set("active_connections",
             JsonValue(static_cast<int64_t>(
                 active_connections_.load(std::memory_order_relaxed))));
  server.Set("requests", JsonValue(requests_.load(std::memory_order_relaxed)));
  server.Set("errors", JsonValue(errors_.load(std::memory_order_relaxed)));
  server.Set("last_request_id",
             JsonValue(static_cast<int64_t>(
                 next_request_id_.load(std::memory_order_relaxed))));
  out.Set("server", std::move(server));

  // The executor admission ledger: every submitted query lands in exactly
  // one of admitted / shed / expired / cancelled, and every admitted one in
  // completed / failed (plus the live running/queued gauges). Both blocks
  // list the same values /metrics renders.
  const auto ledger_json = [](const std::vector<LedgerValue>& values) {
    JsonValue block = JsonValue::Object();
    for (const LedgerValue& v : values) block.Set(v.name, JsonValue(v.value));
    return block;
  };
  out.Set("executor", ledger_json(executor_->stats().Values()));

  const TreeCache::Stats cache = cache_->stats();
  JsonValue cache_json = ledger_json(cache.Values());
  const int64_t lookups = cache.hits + cache.misses + cache.coalesced;
  cache_json.Set("hit_rate",
                 JsonValue(lookups > 0
                               ? static_cast<double>(cache.hits) /
                                     static_cast<double>(lookups)
                               : 0.0));
  out.Set("cache", std::move(cache_json));

  // Rolling per-minute latency percentiles (SlidingHistogram windows; the
  // cumulative-since-start view lives in /metrics).
  JsonValue latency = JsonValue::Object();
  const auto window_json = [](const SlidingHistogram& window) {
    const FixedHistogram::Snapshot snap = window.WindowSnapshot();
    JsonValue w = JsonValue::Object();
    w.Set("count", JsonValue(snap.total));
    w.Set("p50_ms",
          JsonValue(SlidingHistogram::SnapshotQuantile(snap, 0.50)));
    w.Set("p95_ms",
          JsonValue(SlidingHistogram::SnapshotQuantile(snap, 0.95)));
    w.Set("p99_ms",
          JsonValue(SlidingHistogram::SnapshotQuantile(snap, 0.99)));
    return w;
  };
  latency.Set("window_seconds",
              JsonValue(static_cast<int64_t>(topk_window_->window_seconds())));
  latency.Set("topk", window_json(*topk_window_));
  latency.Set("temporal", window_json(*temporal_window_));
  out.Set("latency", std::move(latency));

  // SLO burn: fraction of the window's query requests over the threshold.
  // The slo window's single bound is exactly slo_ms, so "over" is the
  // overflow bucket — no percentile rounding at the threshold.
  const FixedHistogram::Snapshot slo = slo_window_->WindowSnapshot();
  const int64_t window_breaches =
      slo.cumulative.size() >= 2
          ? slo.total - slo.cumulative[slo.cumulative.size() - 2]
          : 0;
  JsonValue slo_json = JsonValue::Object();
  slo_json.Set("threshold_ms", JsonValue(options_.slo_ms));
  slo_json.Set("window_total", JsonValue(slo.total));
  slo_json.Set("window_breaches", JsonValue(window_breaches));
  slo_json.Set("window_burn_rate",
               JsonValue(slo.total > 0
                             ? static_cast<double>(window_breaches) /
                                   static_cast<double>(slo.total)
                             : 0.0));
  slo_json.Set("breaches_total",
               JsonValue(slo_breaches_total_.load(std::memory_order_relaxed)));
  out.Set("slo", std::move(slo_json));

  return out.Write();
}

std::string Server::BuildMetricsText() const {
  MetricSamples samples = MetricsRegistry::Global().Snapshot();
  const Stats s = stats();
  const LedgerValue serve[] = {{"requests", s.requests},
                               {"errors", s.errors},
                               {"connections", s.connections_accepted}};
  samples.AddLedger("serve", serve);
  samples.histograms.push_back({"serve.topk_ms", topk_ms_.TakeSnapshot()});
  samples.histograms.push_back(
      {"serve.temporal_ms", temporal_ms_.TakeSnapshot()});
  samples.AddLedger("executor", executor_->stats().Values());
  samples.AddLedger("cache", cache_->stats().Values());
  if (options_.event_log != nullptr) {
    const LedgerValue eventlog[] = {{"dropped", options_.event_log->dropped()}};
    samples.AddLedger("eventlog", eventlog);
  }
  return RenderPrometheusText(std::move(samples));
}

std::string Server::BuildTracezJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("schema", JsonValue(std::string("crashsim.tracez.v1")));
  out.Set("capacity",
          JsonValue(static_cast<int64_t>(
              tracez_ != nullptr ? tracez_->capacity() : 0)));
  out.Set("sample_every",
          JsonValue(static_cast<int64_t>(options_.tracez_sample_every)));
  JsonValue traces = JsonValue::Array();
  if (tracez_ != nullptr) {
    for (const TracezRing::Entry& entry : tracez_->Snapshot()) {
      JsonValue t = JsonValue::Object();
      t.Set("request_id", JsonValue(static_cast<int64_t>(entry.request_id)));
      t.Set("op", JsonValue(entry.op));
      t.Set("status", JsonValue(entry.status));
      t.Set("elapsed_ms", JsonValue(entry.elapsed_ms));
      t.Set("slow", JsonValue(entry.slow));
      t.Set("trace", BuildSpanTreeJson(*entry.trace));
      traces.Append(std::move(t));
    }
  }
  out.Set("traces", std::move(traces));
  return out.Write();
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace crashsim
