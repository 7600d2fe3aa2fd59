#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/crashsim.h"
#include "graph/generators.h"
#include "graph/temporal_graph.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "util/event_log.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/top_k.h"

namespace crashsim {
namespace {

using std::chrono::milliseconds;

// Connects socket fd to the test server on 127.0.0.1:port.
bool ConnectTo(int fd, int port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  return connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

// An owned client connection to a test server.
class Client {
 public:
  explicit Client(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    connected_ = ConnectTo(fd_, port);
  }
  ~Client() {
    if (fd_ >= 0) close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return connected_; }
  int fd() const { return fd_; }

  // One request/response round trip; returns the parsed response object.
  StatusOr<JsonValue> Call(const JsonValue& request) {
    return CallRaw(request.Write());
  }
  StatusOr<JsonValue> CallRaw(const std::string& request) {
    RETURN_IF_ERROR(WriteFrame(fd_, request));
    ASSIGN_OR_RETURN(std::string payload, ReadFrame(fd_));
    return ParseJson(payload);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

// 300-node graph with original ids offset by 1000, so tests exercise the
// original<->internal id mapping rather than an identity one.
LoadedGraph TestGraph() {
  Rng rng(11);
  LoadedGraph loaded;
  loaded.graph = ErdosRenyi(300, 1500, /*undirected=*/false, &rng);
  loaded.original_ids.resize(static_cast<size_t>(loaded.graph.num_nodes()));
  std::iota(loaded.original_ids.begin(), loaded.original_ids.end(),
            int64_t{1000});
  return loaded;
}

LoadedTemporalGraph TestTemporalGraph(int snapshots = 4) {
  Rng rng(13);
  TemporalGraphBuilder builder(40, /*undirected=*/true);
  for (int t = 0; t < snapshots; ++t) {
    const Graph g = ErdosRenyi(40, 120 + 10 * t, /*undirected=*/true, &rng);
    builder.AddSnapshot(g.Edges());
  }
  LoadedTemporalGraph loaded;
  loaded.graph = builder.Build();
  loaded.original_ids.resize(static_cast<size_t>(loaded.graph.num_nodes()));
  std::iota(loaded.original_ids.begin(), loaded.original_ids.end(),
            int64_t{500});
  return loaded;
}

ServerOptions TestServerOptions() {
  ServerOptions opt;
  opt.engine.mc.trials_override = 150;
  opt.engine.mc.seed = 23;
  // Deterministic responses: no degradation shrinking trial budgets.
  opt.executor.degrade_at = 0.0;
  opt.executor.max_concurrent = 8;
  opt.executor.max_queue = 32;
  opt.metrics_port = 0;
  return opt;
}

JsonValue PingRequest() {
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue(std::string("ping")));
  return request;
}

JsonValue TopKRequest(int64_t source, int64_t k) {
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue(std::string("topk")));
  request.Set("source", JsonValue(source));
  request.Set("k", JsonValue(k));
  return request;
}

// One raw HTTP exchange with the metrics listener; returns the whole
// response (status line, headers, body). split=true dribbles the request a
// few bytes at a time to exercise partial-read tolerance.
std::string RawHttp(int port, const std::string& payload, bool split = false) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  if (split) {
    for (size_t i = 0; i < payload.size(); i += 7) {
      const std::string piece = payload.substr(i, 7);
      send(fd, piece.data(), piece.size(), 0);
      std::this_thread::sleep_for(milliseconds(5));
    }
  } else {
    send(fd, payload.data(), payload.size(), 0);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

std::string HttpGet(int port, const std::string& path, bool split = false) {
  return RawHttp(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n", split);
}

// The body after the header terminator (empty when none).
std::string HttpBody(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

// The value of an unlabelled sample in a Prometheus exposition; 0 when
// absent (the registry exports a metric only after its first use).
double PrometheusSample(const std::string& exposition,
                        const std::string& name) {
  const std::string prefix = "\n" + name + " ";
  const size_t at = exposition.find(prefix);
  return at == std::string::npos
             ? 0.0
             : std::stod(exposition.substr(at + prefix.size()));
}

// The static graph a temporal test server needs: the first snapshot of
// TestTemporalGraph(), with the same original ids (500..539).
LoadedGraph TemporalProjection() {
  LoadedTemporalGraph temporal = TestTemporalGraph();
  LoadedGraph loaded;
  loaded.graph = temporal.graph.Snapshot(0);
  loaded.original_ids = temporal.original_ids;
  return loaded;
}

// Every span name in one /tracez entry's trace, in tree order.
std::vector<std::string> SpanNames(const JsonValue& trace) {
  std::vector<std::string> names;
  std::function<void(const JsonValue&)> walk = [&](const JsonValue& span) {
    names.push_back(span.GetString("name", ""));
    if (const JsonValue* children = span.Find("children");
        children != nullptr) {
      for (const JsonValue& child : children->items()) walk(child);
    }
  };
  if (const JsonValue* threads = trace.Find("threads"); threads != nullptr) {
    for (const JsonValue& thread : threads->items()) {
      if (const JsonValue* spans = thread.Find("spans"); spans != nullptr) {
        for (const JsonValue& span : spans->items()) walk(span);
      }
    }
  }
  return names;
}

JsonValue TemporalRequest(int64_t source) {
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue(std::string("temporal")));
  request.Set("source", JsonValue(source));
  request.Set("kind", JsonValue(std::string("threshold")));
  request.Set("theta", JsonValue(0.02));
  return request;
}

// Response key sets. The wire contract is the set of keys (and their
// values), not their order.
using KeySet = std::set<std::string>;

KeySet KeysOf(const JsonValue& object) {
  KeySet keys;
  for (const auto& member : object.members()) keys.insert(member.first);
  return keys;
}

KeySet ErrorKeys() { return {"id", "status", "message", "request_id"}; }

KeySet TopKAnswerKeys() {
  return {"id", "status", "op", "request_id", "source", "k", "nodes",
          "scores", "trials_done", "trials_target", "epsilon_achieved",
          "degraded", "trial_fraction", "retries", "queue_wait_ms", "run_ms",
          "stages"};
}

KeySet TemporalAnswerKeys() {
  return {"id", "status", "op", "request_id", "source", "kind", "begin",
          "end", "nodes", "snapshots_processed", "scores_computed", "retries",
          "queue_wait_ms", "run_ms", "stages"};
}

KeySet StageKeys() {
  return {"queue_ms", "cache_ms", "walk_ms", "serialize_ms"};
}

KeySet With(KeySet keys, std::initializer_list<const char*> extra) {
  for (const char* key : extra) keys.insert(key);
  return keys;
}

TEST(ServerOptionsTest, ValidateRejectsBadValues) {
  ServerOptions opt = TestServerOptions();
  opt.port = 70000;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TestServerOptions();
  opt.max_connections = 0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TestServerOptions();
  opt.max_k = 0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TestServerOptions();
  opt.executor.max_concurrent = 0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TestServerOptions();
  opt.slow_query_ms = -2;  // -1 (disabled) is the lowest legal value
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TestServerOptions();
  opt.tracez_capacity = -1;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TestServerOptions();
  opt.slo_ms = 0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(TestServerOptions().Validate().ok());
}

// Start() answers options its members would CHECK-fail on: the executor,
// the engine's Bind and the tree cache are built only after Validate().
TEST(ServerTest, StartRejectsBadOptionsWithoutBuildingAnything) {
  const std::vector<std::pair<const char*, std::function<void(ServerOptions*)>>>
      cases = {
          {"executor", [](ServerOptions* o) { o->executor.max_concurrent = 0; }},
          {"engine", [](ServerOptions* o) { o->engine.mc.c = 1.5; }},
          {"cache", [](ServerOptions* o) { o->cache.capacity_bytes = -1; }},
      };
  for (const auto& [name, mutate] : cases) {
    ServerOptions opt = TestServerOptions();
    mutate(&opt);
    Server server(TestGraph(), TestTemporalGraph(), opt);
    const Status started = server.Start();
    EXPECT_EQ(started.code(), StatusCode::kInvalidArgument)
        << name << ": " << started;
    EXPECT_EQ(server.port(), 0) << name;
  }
}

TEST(ServerTest, StartPingShutdown) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  JsonValue request = PingRequest();
  request.Set("id", JsonValue(int64_t{42}));
  StatusOr<JsonValue> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->GetString("status", ""), "OK");
  EXPECT_EQ(response->GetInt("id", -1), 42);

  server.Shutdown();
  server.Shutdown();  // idempotent
}

TEST(ServerTest, TopKIsBitIdenticalToDirectEngine) {
  LoadedGraph loaded = TestGraph();
  const ServerOptions options = TestServerOptions();

  // Direct, uncached reference on an identically configured engine.
  CrashSim reference(options.engine);
  ASSERT_TRUE(reference.Bind(&loaded.graph).ok());
  QueryContext ctx;
  const NodeId source = 7;  // original id 1007
  const PartialResult direct = reference.SingleSource(source, &ctx);
  ASSERT_TRUE(direct.status.ok());
  TopK<NodeId> selector(10);
  for (NodeId v = 0; v < loaded.graph.num_nodes(); ++v) {
    if (v != source) selector.Offer(direct.scores[static_cast<size_t>(v)], v);
  }
  const auto expected = selector.Sorted();

  Server server(TestGraph(), std::nullopt, options);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  StatusOr<JsonValue> response = client.Call(TopKRequest(1007, 10));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->GetString("status", ""), "OK");

  const JsonValue* nodes = response->Find("nodes");
  const JsonValue* scores = response->Find("scores");
  ASSERT_NE(nodes, nullptr);
  ASSERT_NE(scores, nullptr);
  ASSERT_EQ(nodes->items().size(), expected.size());
  ASSERT_EQ(scores->items().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(nodes->items()[i].as_int(),
              loaded.original_ids[static_cast<size_t>(expected[i].second)]);
    // %.17g serialisation round-trips doubles exactly: bit-identical.
    EXPECT_EQ(scores->items()[i].as_number(), expected[i].first);
  }
  EXPECT_EQ(response->GetInt("trials_done", -1), direct.trials_done);
  server.Shutdown();
}

// Served top-k sweeps the cached source tree. The first request builds the
// tree and the second one hits it; both answers equal an uncached
// SingleSource bit for bit, and both say that no trials ran.
TEST(ServerTest, CachedTreeTopKEqualsSingleSource) {
  LoadedGraph loaded = TestGraph();
  ServerOptions options = TestServerOptions();
  options.engine.mode = RevReachMode::kCorrected;
  CrashSim reference(options.engine);
  ASSERT_TRUE(reference.Bind(&loaded.graph).ok());
  const NodeId source = 8;  // original id 1008
  const PartialResult direct = reference.SingleSource(source, nullptr);
  ASSERT_TRUE(direct.status.ok());
  TopK<NodeId> selector(10);
  for (NodeId v = 0; v < loaded.graph.num_nodes(); ++v) {
    if (v != source) selector.Offer(direct.scores[static_cast<size_t>(v)], v);
  }
  const auto expected = selector.Sorted();

  Server server(TestGraph(), std::nullopt, options);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  for (int call = 0; call < 2; ++call) {
    SCOPED_TRACE(call == 0 ? "cache miss" : "cache hit");
    StatusOr<JsonValue> response = client.Call(TopKRequest(1008, 10));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->GetString("status", ""), "OK");
    const JsonValue* scores = response->Find("scores");
    ASSERT_NE(scores, nullptr);
    ASSERT_EQ(scores->items().size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(response->Find("nodes")->items()[i].as_int(),
                loaded.original_ids[static_cast<size_t>(expected[i].second)]);
      EXPECT_EQ(scores->items()[i].as_number(), expected[i].first);
    }
    EXPECT_EQ(response->GetInt("trials_done", -1), 0);
    EXPECT_EQ(response->GetInt("trials_target", -1), 0);
    EXPECT_EQ(response->Find("epsilon_achieved")->as_number(),
              direct.epsilon_achieved);
  }
  EXPECT_EQ(server.tree_cache().stats().hits, 1);
  server.Shutdown();
}

TEST(ServerTest, UnknownSourceAndBadRequestsReportCleanErrors) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  StatusOr<JsonValue> response = client.Call(TopKRequest(99999, 5));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status", ""), "NOT_FOUND");

  response = client.Call(TopKRequest(1003, 0));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status", ""), "INVALID_ARGUMENT");

  JsonValue bad_op = JsonValue::Object();
  bad_op.Set("op", JsonValue(std::string("frobnicate")));
  response = client.Call(bad_op);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status", ""), "INVALID_ARGUMENT");

  // Temporal endpoint without a temporal graph loaded.
  JsonValue temporal = JsonValue::Object();
  temporal.Set("op", JsonValue(std::string("temporal")));
  temporal.Set("source", JsonValue(int64_t{1003}));
  response = client.Call(temporal);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status", ""), "INVALID_ARGUMENT");

  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, 4);
  EXPECT_EQ(stats.errors, 4);
  server.Shutdown();
}

TEST(ServerTest, MalformedFrameGetsErrorResponse) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  // A valid frame whose payload is a JSON string, not an object.
  StatusOr<JsonValue> response = client.Call(JsonValue(std::string("{nope")));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status", ""), "INVALID_ARGUMENT");
  server.Shutdown();
}

// True when fd turns readable (data or EOF) within timeout_ms.
bool ReadableWithin(int fd, int timeout_ms) {
  pollfd pfd = {fd, POLLIN, 0};
  return poll(&pfd, 1, timeout_ms) == 1;
}

// A header that declares more than the request cap is refused at once:
// the server must neither allocate the declared length nor wait for a
// payload that never comes.
TEST(ServerTest, OversizedRequestHeaderIsRefusedWithoutWaiting) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  const uint32_t len = kMaxRequestFrameBytes + 1;
  const char header[4] = {static_cast<char>(len >> 24),
                          static_cast<char>(len >> 16),
                          static_cast<char>(len >> 8),
                          static_cast<char>(len)};
  ASSERT_EQ(send(client.fd(), header, sizeof(header), MSG_NOSIGNAL), 4);

  ASSERT_TRUE(ReadableWithin(client.fd(), 5000)) << "server waited";
  StatusOr<std::string> payload = ReadFrame(client.fd());
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  StatusOr<JsonValue> response = ParseJson(*payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status", ""), "RESOURCE_EXHAUSTED");
  // Then the server closes the connection.
  ASSERT_TRUE(ReadableWithin(client.fd(), 5000));
  EXPECT_EQ(ReadFrame(client.fd()).status().code(), StatusCode::kUnavailable);
  server.Shutdown();
}

TEST(ServerTest, TemporalQueryRoundTrip) {
  ServerOptions options = TestServerOptions();
  options.engine.mc.trials_override = 80;
  Server server(TemporalProjection(), TestTemporalGraph(), options);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue(std::string("temporal")));
  request.Set("source", JsonValue(int64_t{503}));
  request.Set("kind", JsonValue(std::string("threshold")));
  request.Set("theta", JsonValue(0.02));
  StatusOr<JsonValue> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->GetString("status", ""), "OK");
  EXPECT_EQ(response->GetInt("snapshots_processed", -1), 4);
  EXPECT_EQ(response->GetInt("begin", -1), 0);
  EXPECT_EQ(response->GetInt("end", -1), 3);
  const JsonValue* nodes = response->Find("nodes");
  ASSERT_NE(nodes, nullptr);
  // Every answered node must be an original id of the temporal graph.
  for (const JsonValue& node : nodes->items()) {
    const int64_t id = node.as_int();
    EXPECT_GE(id, 500);
    EXPECT_LT(id, 540);
  }
  server.Shutdown();
}

TEST(ServerTest, ConcurrentHotSourceClientsShareOneTree) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  std::vector<std::string> replies(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client(server.port());
      if (!client.connected()) return;
      StatusOr<JsonValue> response = client.Call(TopKRequest(1007, 10));
      if (!response.ok()) return;
      // Keep only the semantic payload: timing fields legitimately differ
      // between clients; the answer must not.
      JsonValue semantic = JsonValue::Object();
      for (const char* key : {"status", "nodes", "scores", "trials_done",
                              "epsilon_achieved", "degraded"}) {
        if (const JsonValue* v = response->Find(key); v != nullptr) {
          semantic.Set(key, *v);
        }
      }
      replies[static_cast<size_t>(i)] = semantic.Write();
    });
  }
  for (std::thread& t : threads) t.join();

  // All clients answered, identically (scores are a pure function of
  // (seed, source, candidate), shared tree or not).
  for (int i = 0; i < kClients; ++i) {
    ASSERT_FALSE(replies[static_cast<size_t>(i)].empty()) << "client " << i;
    EXPECT_EQ(replies[static_cast<size_t>(i)], replies[0]);
  }
  // One build; everyone else hit the cache or coalesced onto the build.
  const TreeCache::Stats cache = server.tree_cache().stats();
  EXPECT_EQ(cache.misses, 1);
  EXPECT_EQ(cache.hits + cache.coalesced, kClients - 1);
  server.Shutdown();
}

TEST(ServerTest, GracefulShutdownDrainsInFlightQuery) {
  FailpointScope failpoints(3);
  // Make the query slow enough that shutdown starts while it is running.
  FailpointSpec slow;
  slow.action = FailpointAction::kLatency;
  slow.probability = 1.0;
  slow.latency_ms = 300;
  ASSERT_TRUE(ConfigureFailpoint("rev_reach.build", slow).ok());

  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  std::thread shutdown_thread([&server] {
    std::this_thread::sleep_for(milliseconds(100));
    server.Shutdown();
  });
  // Sent before shutdown begins, answered in full after it: the drain
  // guarantee.
  StatusOr<JsonValue> response = client.Call(TopKRequest(1007, 5));
  shutdown_thread.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->GetString("status", ""), "OK");
  ASSERT_NE(response->Find("scores"), nullptr);
  EXPECT_EQ(response->Find("scores")->items().size(), 5u);
}

// Shutdown() ends every blocked wait through its socket, so it takes a few
// milliseconds. The bound is far above that, so it holds under sanitizers;
// a wait that never ends fails the test instead of hanging it, because
// `unblock` then releases the server.
constexpr milliseconds kShutdownBound{2000};

milliseconds TimedShutdown(Server& server,
                           const std::function<void()>& unblock) {
  const auto start = std::chrono::steady_clock::now();
  std::future<void> done =
      std::async(std::launch::async, [&server] { server.Shutdown(); });
  if (done.wait_for(kShutdownBound) != std::future_status::ready) unblock();
  done.get();
  return std::chrono::duration_cast<milliseconds>(
      std::chrono::steady_clock::now() - start);
}

TEST(ServerTest, ShutdownWakesIdleConnection) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  // The round trip puts the connection thread in its read of the next frame.
  ASSERT_TRUE(client.Call(PingRequest()).ok());

  EXPECT_LT(TimedShutdown(server,
                          [&client] { shutdown(client.fd(), SHUT_RDWR); }),
            kShutdownBound);
  // The idle connection ends at a frame boundary: closed, no error frame.
  EXPECT_EQ(ReadFrame(client.fd()).status().code(), StatusCode::kUnavailable);
}

// A /metrics client that connects and sends nothing must not hold the
// drain for the 2 s the listener allows a request head.
TEST(ServerTest, ShutdownWakesSilentMetricsScrape) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.metrics_port(), 0);
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(ConnectTo(fd, server.metrics_port()));
  // Let the listener accept the scrape and block reading its head.
  std::this_thread::sleep_for(milliseconds(100));

  EXPECT_LT(TimedShutdown(server, [fd] { shutdown(fd, SHUT_RDWR); }),
            milliseconds(500));
  close(fd);
}

TEST(ServerTest, ShutdownEndsHalfReceivedFrame) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Call(PingRequest()).ok());

  // A header declaring 100 bytes, then half of them.
  const char frame[4 + 50] = {0, 0, 0, 100};
  ASSERT_EQ(send(client.fd(), frame, sizeof(frame), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(frame)));
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_LT(TimedShutdown(server,
                          [&client] { shutdown(client.fd(), SHUT_RDWR); }),
            kShutdownBound);
  // The cut frame is reported as DATA_LOSS, or the connection just closes.
  StatusOr<std::string> payload = ReadFrame(client.fd());
  if (payload.ok()) {
    StatusOr<JsonValue> response = ParseJson(*payload);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->GetString("status", ""), "DATA_LOSS");
  } else {
    const StatusCode code = payload.status().code();
    EXPECT_TRUE(code == StatusCode::kUnavailable ||
                code == StatusCode::kDataLoss)
        << payload.status().ToString();
  }
}

TEST(ServerTest, ShutdownFinishesWhileClientsKeepConnecting) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  std::atomic<bool> stop{false};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        Client client(server.port());
        if (client.connected() && client.Call(PingRequest()).ok()) {
          answered.fetch_add(1);
        }
      }
    });
  }
  // Shut down only once connections are being served.
  for (int i = 0; i < 5000 && answered.load() < 20; ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_GE(answered.load(), 20);
  EXPECT_LT(TimedShutdown(server, [&stop] { stop.store(true); }),
            kShutdownBound);
  stop.store(true);
  for (std::thread& t : clients) t.join();
}

// Restores the soft RLIMIT_NOFILE it found, even when the test fails.
class NoFileLimit {
 public:
  NoFileLimit() { getrlimit(RLIMIT_NOFILE, &saved_); }
  ~NoFileLimit() { setrlimit(RLIMIT_NOFILE, &saved_); }
  NoFileLimit(const NoFileLimit&) = delete;
  NoFileLimit& operator=(const NoFileLimit&) = delete;
  bool LowerTo(rlim_t soft) {
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    return setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }

 private:
  rlimit saved_{};
};

// One EMFILE burst must not end the accept loop: the server counts the
// failed accepts as rejections, and once fds are free again it serves the
// very connection that was waiting.
TEST(ServerTest, AcceptLoopSurvivesFdExhaustion) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  // The client's own socket exists before the process runs out of fds.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);

  std::vector<int> filler;
  {
    NoFileLimit limit;
    int highest = fd;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
      highest = std::max(highest, std::stoi(entry.path().filename().string()));
    }
    ASSERT_TRUE(limit.LowerTo(static_cast<rlim_t>(highest) + 8));
    for (int next = dup(fd); next >= 0; next = dup(fd)) filler.push_back(next);
    ASSERT_EQ(errno, EMFILE);
    ASSERT_TRUE(ConnectTo(fd, server.port()));
    for (int i = 0; i < 5000 && server.stats().connections_rejected == 0; ++i) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    for (int f : filler) close(f);
  }
  EXPECT_GT(server.stats().connections_rejected, 0);

  ASSERT_TRUE(WriteFrame(fd, PingRequest().Write()).ok());
  ASSERT_TRUE(ReadableWithin(fd, 5000)) << "the accept loop stopped";
  StatusOr<std::string> payload = ReadFrame(fd);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  StatusOr<JsonValue> response = ParseJson(*payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status", ""), "OK");
  close(fd);
  server.Shutdown();
}

TEST(ServerTest, MetricsEndpointServesPrometheusText) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.metrics_port(), 0);

  // Prime at least one serve.* metric.
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Call(PingRequest()).ok());
  }

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.metrics_port()));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string get = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(send(fd, get.data(), get.size(), 0),
            static_cast<ssize_t>(get.size()));
  std::string body;
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    body.append(buf, static_cast<size_t>(n));
  }
  close(fd);

  EXPECT_NE(body.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(body.find("crashsim_serve_requests_total"), std::string::npos);
  EXPECT_NE(body.find("# TYPE"), std::string::npos);
  server.Shutdown();
}

// Two servers in one process keep separate ledgers: each one's /metrics
// serve.*, executor.* and cache.* samples (latency histograms included) are
// its own stats() and /statusz values, never the sum over every server the
// process has run.
TEST(ServerTest, TwoServersInOneProcessExportOnlyTheirOwnCounters) {
  Server first(TestGraph(), std::nullopt, TestServerOptions());
  Server second(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(first.Start().ok());
  ASSERT_TRUE(second.Start().ok());
  {
    Client client(first.port());
    ASSERT_TRUE(client.connected());
    for (const int64_t source : {1007, 1008, 1007, 99999}) {
      ASSERT_TRUE(client.Call(TopKRequest(source, 5)).ok());
    }
  }
  {
    Client client(second.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Call(TopKRequest(1009, 5)).ok());
  }

  for (Server* server : {&first, &second}) {
    SCOPED_TRACE(server == &first ? "first" : "second");
    const std::string metrics =
        HttpBody(HttpGet(server->metrics_port(), "/metrics"));
    StatusOr<JsonValue> statusz =
        ParseJson(HttpBody(HttpGet(server->metrics_port(), "/statusz")));
    ASSERT_TRUE(statusz.ok()) << statusz.status().ToString();

    // One TYPE line per family (tools/check_prometheus.py's rule).
    std::set<std::string> families;
    for (size_t at = metrics.find("# TYPE "); at != std::string::npos;
         at = metrics.find("# TYPE ", at + 1)) {
      const size_t name = at + 7;
      EXPECT_TRUE(
          families.insert(metrics.substr(name, metrics.find(' ', name) - name))
              .second)
          << "duplicate TYPE at offset " << at;
    }

    const Server::Stats stats = server->stats();
    EXPECT_EQ(PrometheusSample(metrics, "crashsim_serve_requests_total"),
              stats.requests);
    EXPECT_EQ(PrometheusSample(metrics, "crashsim_serve_errors_total"),
              stats.errors);
    EXPECT_EQ(PrometheusSample(metrics, "crashsim_serve_connections_total"),
              stats.connections_accepted);
    const JsonValue* statusz_server = statusz->Find("server");
    ASSERT_NE(statusz_server, nullptr);
    EXPECT_EQ(statusz_server->GetInt("requests", -1), stats.requests);
    EXPECT_EQ(statusz_server->GetInt("errors", -1), stats.errors);

    const auto expect_ledger = [&](const char* prefix,
                                   const std::vector<LedgerValue>& values) {
      const JsonValue* block = statusz->Find(prefix);
      ASSERT_NE(block, nullptr) << prefix;
      for (const LedgerValue& v : values) {
        const std::string family = std::string("crashsim_") + prefix + "_" +
                                   v.name + (v.gauge ? "" : "_total");
        EXPECT_EQ(block->GetInt(v.name, -1), v.value) << family;
        EXPECT_EQ(PrometheusSample(metrics, family),
                  static_cast<double>(v.value))
            << family;
      }
    };
    expect_ledger("executor", server->executor().stats().Values());
    expect_ledger("cache", server->tree_cache().stats().Values());

    // The latency histograms are the server's own too, each present from
    // start-up: every request above was a topk one.
    EXPECT_EQ(PrometheusSample(metrics, "crashsim_serve_topk_ms_count"),
              stats.requests);
    EXPECT_NE(metrics.find("\ncrashsim_serve_temporal_ms_count 0\n"),
              std::string::npos);
  }
  EXPECT_EQ(first.stats().requests, 4);
  EXPECT_EQ(first.stats().errors, 1);
  EXPECT_EQ(first.executor().stats().submitted, 3);
  EXPECT_EQ(first.tree_cache().stats().misses, 2);
  EXPECT_EQ(second.stats().requests, 1);
  EXPECT_EQ(second.executor().stats().submitted, 1);
  EXPECT_EQ(second.tree_cache().stats().misses, 1);
  first.Shutdown();
  second.Shutdown();
}

TEST(ServerTest, ResponsesCarryRequestIdAndStageBreakdown) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  StatusOr<JsonValue> first = client.Call(TopKRequest(1007, 5));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->GetString("status", ""), "OK");
  const int64_t first_id = first->GetInt("request_id", 0);
  EXPECT_GT(first_id, 0);
  const JsonValue* stages = first->Find("stages");
  ASSERT_NE(stages, nullptr);
  for (const char* key : {"queue_ms", "cache_ms", "walk_ms", "serialize_ms"}) {
    EXPECT_GE(stages->GetDouble(key, -1.0), 0.0) << key;
  }

  // Ids are assigned at ingress and strictly increase; error responses get
  // one too, so every reply is correlatable with the event log.
  StatusOr<JsonValue> second = client.Call(TopKRequest(99999, 5));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->GetString("status", ""), "NOT_FOUND");
  EXPECT_GT(second->GetInt("request_id", 0), first_id);
  server.Shutdown();
}

TEST(ServerTest, StatuszReportsLedgerCacheAndRollingLatency) {
  ServerOptions options = TestServerOptions();
  options.tracez_sample_every = 1;
  Server server(TestGraph(), std::nullopt, options);
  ASSERT_TRUE(server.Start().ok());
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Call(TopKRequest(1007, 5)).ok());
    ASSERT_TRUE(client.Call(TopKRequest(1007, 5)).ok());
  }

  const std::string response = HttpGet(server.metrics_port(), "/statusz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  StatusOr<JsonValue> doc = ParseJson(HttpBody(response));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetString("schema", ""), "crashsim.statusz.v1");
  EXPECT_GE(doc->GetDouble("uptime_seconds", -1.0), 0.0);
  const JsonValue* startup = doc->Find("startup");
  ASSERT_NE(startup, nullptr);
  EXPECT_GE(startup->GetDouble("bind_ms", -1.0), 0.0);
  const JsonValue* graph = doc->Find("graph");
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->GetInt("nodes", 0), 300);
  const JsonValue* executor = doc->Find("executor");
  ASSERT_NE(executor, nullptr);
  EXPECT_EQ(executor->GetInt("submitted", -1), 2);
  EXPECT_EQ(executor->GetInt("completed", -1), 2);
  const JsonValue* cache = doc->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->GetInt("misses", -1), 1);
  EXPECT_EQ(cache->GetInt("hits", -1), 1);
  const JsonValue* latency = doc->Find("latency");
  ASSERT_NE(latency, nullptr);
  const JsonValue* topk_window = latency->Find("topk");
  ASSERT_NE(topk_window, nullptr);
  EXPECT_EQ(topk_window->GetInt("count", -1), 2);
  EXPECT_GE(topk_window->GetDouble("p99_ms", -1.0),
            topk_window->GetDouble("p50_ms", -1.0));
  const JsonValue* slo = doc->Find("slo");
  ASSERT_NE(slo, nullptr);
  EXPECT_EQ(slo->GetInt("window_total", -1), 2);
  server.Shutdown();
}

TEST(ServerTest, TracezReassemblesIngressToEngineSpanTree) {
  ServerOptions options = TestServerOptions();
  options.tracez_sample_every = 1;  // sample every request
  Server server(TestGraph(), std::nullopt, options);
  ASSERT_TRUE(server.Start().ok());
  int64_t request_id = 0;
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    StatusOr<JsonValue> response = client.Call(TopKRequest(1007, 5));
    ASSERT_TRUE(response.ok());
    request_id = response->GetInt("request_id", 0);
    ASSERT_GT(request_id, 0);
  }

  StatusOr<JsonValue> doc =
      ParseJson(HttpBody(HttpGet(server.metrics_port(), "/tracez")));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetString("schema", ""), "crashsim.tracez.v1");
  EXPECT_EQ(doc->GetInt("capacity", -1), 64);
  const JsonValue* traces = doc->Find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_FALSE(traces->items().empty());

  // Find the sampled entry for our request and walk its span tree: the
  // ingress span must contain the executor span — the request id crossed
  // the server -> executor -> engine boundary intact.
  bool found = false;
  for (const JsonValue& entry : traces->items()) {
    if (entry.GetInt("request_id", -1) != request_id) continue;
    found = true;
    EXPECT_EQ(entry.GetString("op", ""), "topk");
    EXPECT_EQ(entry.GetString("status", ""), "OK");
    const JsonValue* tree = entry.Find("trace");
    ASSERT_NE(tree, nullptr);
    EXPECT_EQ(tree->GetInt("request_id", -1), request_id);
    const JsonValue* threads = tree->Find("threads");
    ASSERT_NE(threads, nullptr);
    for (const JsonValue& thread : threads->items()) {
      ASSERT_NE(thread.Find("spans"), nullptr);
    }
    const std::vector<std::string> names = SpanNames(*tree);
    EXPECT_NE(std::find(names.begin(), names.end(), "serve.request"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "executor.query"),
              names.end());
  }
  EXPECT_TRUE(found) << "request " << request_id << " not sampled";
  server.Shutdown();
}

// A temporal request that rebuilds its source tree at every snapshot of a
// long window keeps its whole span tree within the request's trace
// collector (RequestTrace::kServeCapacity events): nothing is dropped.
TEST(ServerTest, TemporalSpanTreeFitsTheRequestCollector) {
  constexpr int kSnapshots = 8;
  ServerOptions options = TestServerOptions();
  options.engine.mc.trials_override = 200;
  options.tracez_sample_every = 1;
  Server server(TemporalProjection(), TestTemporalGraph(kSnapshots), options);
  ASSERT_TRUE(server.Start().ok());
  int64_t request_id = 0;
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    JsonValue request = TemporalRequest(503);
    request.Set("theta", JsonValue(0.001));
    StatusOr<JsonValue> response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->GetString("status", ""), "OK");
    EXPECT_EQ(response->GetInt("snapshots_processed", -1), kSnapshots);
    request_id = response->GetInt("request_id", 0);
  }

  StatusOr<JsonValue> doc =
      ParseJson(HttpBody(HttpGet(server.metrics_port(), "/tracez")));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* traces = doc->Find("traces");
  ASSERT_NE(traces, nullptr);
  bool found = false;
  for (const JsonValue& entry : traces->items()) {
    if (entry.GetInt("request_id", -1) != request_id) continue;
    found = true;
    const JsonValue* tree = entry.Find("trace");
    ASSERT_NE(tree, nullptr);
    EXPECT_EQ(tree->GetInt("dropped", -1), 0);
    const std::vector<std::string> names = SpanNames(*tree);
    // Each snapshot's random graph moves the source's reverse reach, so
    // every snapshot builds a fresh source tree.
    EXPECT_EQ(std::count(names.begin(), names.end(), "rev_reach.build"),
              kSnapshots);
    // Every snapshot, the first included, runs in one snapshot span.
    EXPECT_EQ(std::count(names.begin(), names.end(), "crashsim_t.snapshot"),
              kSnapshots);
  }
  EXPECT_TRUE(found) << "request " << request_id << " not sampled";
  server.Shutdown();
}

TEST(ServerTest, HttpListenerHandles404And405AndSplitWrites) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  const int port = server.metrics_port();

  EXPECT_NE(HttpGet(port, "/nope").find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(RawHttp(port, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  // A request line dribbled 7 bytes at a time must still be served.
  const std::string split = HttpGet(port, "/statusz", /*split=*/true);
  EXPECT_NE(split.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(HttpBody(split).find("crashsim.statusz.v1"), std::string::npos);
  server.Shutdown();
}

TEST(ServerTest, SlowQueryEventsLandInTheEventLog) {
  const std::string path = testing::TempDir() + "/server_slow_query.jsonl";
  std::remove(path.c_str());
  EventLog::Options log_options;
  log_options.path = path;
  EventLog event_log(log_options);
  ASSERT_TRUE(event_log.ok());

  ServerOptions options = TestServerOptions();
  options.event_log = &event_log;
  options.slow_query_ms = 0;  // everything is "slow": log every request
  Server server(TestGraph(), std::nullopt, options);
  ASSERT_TRUE(server.Start().ok());
  int64_t ok_id = 0;
  int64_t error_id = 0;
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    StatusOr<JsonValue> ok_response = client.Call(TopKRequest(1007, 5));
    ASSERT_TRUE(ok_response.ok());
    ok_id = ok_response->GetInt("request_id", 0);
    StatusOr<JsonValue> error_response = client.Call(TopKRequest(99999, 5));
    ASSERT_TRUE(error_response.ok());
    error_id = error_response->GetInt("request_id", 0);
  }
  server.Shutdown();
  event_log.Flush();

  // Both requests produced a slow_query line carrying their request id, the
  // op, the status, and the per-stage breakdown.
  std::ifstream in(path);
  std::string line;
  bool saw_ok = false;
  bool saw_error = false;
  while (std::getline(in, line)) {
    StatusOr<JsonValue> event = ParseJson(line);
    ASSERT_TRUE(event.ok()) << line;
    if (event->GetString("event", "") != "slow_query") continue;
    EXPECT_EQ(event->GetString("schema", ""), "crashsim.event.v1");
    for (const char* key :
         {"queue_ms", "cache_ms", "walk_ms", "serialize_ms"}) {
      EXPECT_GE(event->GetDouble(key, -1.0), 0.0) << key;
    }
    const int64_t id = event->GetInt("request_id", 0);
    // query_stats is rendered for a query that ran, and only then.
    const JsonValue* query_stats = event->Find("query_stats");
    if (id == ok_id) {
      saw_ok = true;
      EXPECT_EQ(event->GetString("status", ""), "OK");
      EXPECT_EQ(event->GetString("op", ""), "topk");
      ASSERT_NE(query_stats, nullptr);
      EXPECT_EQ(query_stats->GetString("query", ""), "topk");
    } else if (id == error_id) {
      saw_error = true;
      EXPECT_EQ(event->GetString("status", ""), "NOT_FOUND");
      EXPECT_EQ(query_stats, nullptr);
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_error);
}

// Pins the key set of every kind of response: which common fields an error,
// a shed query, a ping and an answered query carry is decided in one place,
// and clients (crashsim_cli replay, perfbench) parse these keys.
TEST(ServerTest, EveryResponseKindKeepsItsKeySet) {
  ServerOptions options = TestServerOptions();
  options.engine.mc.trials_override = 80;
  Server server(TemporalProjection(), TestTemporalGraph(), options);
  Server static_only(TestGraph(), std::nullopt, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(static_only.Start().ok());
  Client client(server.port());
  Client static_client(static_only.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(static_client.connected());

  const auto call = [](Client& to, JsonValue request) {
    request.Set("id", JsonValue(int64_t{7}));
    StatusOr<JsonValue> response = to.Call(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? JsonValue(*response) : JsonValue();
  };
  const JsonValue ping = PingRequest();
  JsonValue unknown_op = JsonValue::Object();
  unknown_op.Set("op", JsonValue(std::string("frobnicate")));
  StatusOr<JsonValue> unparseable = client.CallRaw("{nope");
  ASSERT_TRUE(unparseable.ok()) << unparseable.status().ToString();

  struct Case {
    const char* kind;
    JsonValue response;
    const char* status;
    KeySet keys;
  };
  std::vector<Case> cases = {
      {"ping", call(client, ping), "OK", {"id", "status", "op", "request_id"}},
      {"topk OK", call(client, TopKRequest(503, 5)), "OK", TopKAnswerKeys()},
      {"topk NOT_FOUND", call(client, TopKRequest(99999, 5)), "NOT_FOUND",
       ErrorKeys()},
      {"unknown op", call(client, unknown_op), "INVALID_ARGUMENT",
       ErrorKeys()},
      {"unparseable payload", *unparseable, "INVALID_ARGUMENT",
       {"status", "message", "request_id"}},
      {"temporal OK", call(client, TemporalRequest(503)), "OK",
       TemporalAnswerKeys()},
      {"temporal without a temporal graph",
       call(static_client, TemporalRequest(503)), "INVALID_ARGUMENT",
       ErrorKeys()},
  };
  {
    // Shed at admission: the executor never ran the query.
    FailpointScope failpoints(5);
    FailpointSpec shed;
    shed.code = StatusCode::kResourceExhausted;
    ASSERT_TRUE(ConfigureFailpoint("executor.admit", shed).ok());
    cases.push_back({"shed topk", call(client, TopKRequest(503, 5)),
                     "RESOURCE_EXHAUSTED", With(ErrorKeys(), {"admitted"})});
    EXPECT_FALSE(cases.back().response.GetBool("admitted", true));
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.kind);
    EXPECT_EQ(c.response.GetString("status", ""), c.status);
    EXPECT_EQ(KeysOf(c.response), c.keys);
    EXPECT_GT(c.response.GetInt("request_id", 0), 0);
    if (const JsonValue* stages = c.response.Find("stages");
        stages != nullptr) {
      EXPECT_EQ(KeysOf(*stages), StageKeys());
    }
  }
  server.Shutdown();
  static_only.Shutdown();
}

// A top-k query cut by its deadline answers DEADLINE_EXCEEDED with no
// scores: the sweep that answers it has no partial answer to give. It is a
// non-OK response, so it counts as an error in the server ledger, in
// Prometheus and in the slow-query log.
TEST(ServerTest, PartialDeadlineAnswerCountsAsAnErrorInEverySink) {
  const std::string path =
      testing::TempDir() + "/server_partial_deadline.jsonl";
  std::remove(path.c_str());
  EventLog::Options log_options;
  log_options.path = path;
  EventLog event_log(log_options);
  ASSERT_TRUE(event_log.ok());

  ServerOptions options = TestServerOptions();
  options.event_log = &event_log;
  options.slow_query_ms = 60'000;  // logged for its status, not its latency
  Server server(TestGraph(), std::nullopt, options);
  ASSERT_TRUE(server.Start().ok());
  const double errors_before = PrometheusSample(
      HttpBody(HttpGet(server.metrics_port(), "/metrics")),
      "crashsim_serve_errors_total");

  // Every sweep level first sleeps 300 ms, so the 100 ms deadline has
  // passed at the second level's checkpoint and the sweep is cut there.
  FailpointScope failpoints(9);
  FailpointSpec slow;
  slow.action = FailpointAction::kLatency;
  slow.latency_ms = 300;
  ASSERT_TRUE(ConfigureFailpoint("crashsim.sweep_level", slow).ok());
  JsonValue request = TopKRequest(1007, 5);
  request.Set("id", JsonValue(int64_t{7}));
  request.Set("timeout_ms", JsonValue(int64_t{100}));
  int64_t request_id = 0;
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    StatusOr<JsonValue> response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->GetString("status", ""), "DEADLINE_EXCEEDED");
    EXPECT_EQ(response->Find("scores"), nullptr);
    EXPECT_EQ(KeysOf(*response), With(ErrorKeys(), {"admitted"}));
    request_id = response->GetInt("request_id", 0);
  }

  EXPECT_EQ(server.stats().requests, 1);
  EXPECT_EQ(server.stats().errors, 1);
  EXPECT_EQ(PrometheusSample(
                HttpBody(HttpGet(server.metrics_port(), "/metrics")),
                "crashsim_serve_errors_total"),
            errors_before + 1);
  server.Shutdown();
  event_log.Flush();

  std::ifstream in(path);
  std::string line;
  bool logged = false;
  while (std::getline(in, line)) {
    StatusOr<JsonValue> event = ParseJson(line);
    ASSERT_TRUE(event.ok()) << line;
    if (event->GetString("event", "") == "slow_query" &&
        event->GetInt("request_id", 0) == request_id) {
      logged = true;
      EXPECT_EQ(event->GetString("status", ""), "DEADLINE_EXCEEDED");
    }
  }
  EXPECT_TRUE(logged) << "request " << request_id << " not in the slow log";
}

// A request without timeout_ms runs under the executor's default deadline
// (crashsim_serve --default_timeout_ms fills it) and is cut by it.
TEST(ServerTest, RequestWithoutTimeoutGetsTheExecutorDefaultDeadline) {
  ServerOptions options = TestServerOptions();
  options.executor.default_deadline_ms = 100;
  Server server(TestGraph(), std::nullopt, options);
  ASSERT_TRUE(server.Start().ok());
  // As above: every sweep level first sleeps 300 ms, so the default
  // deadline has passed at the second level's checkpoint.
  FailpointScope failpoints(9);
  FailpointSpec slow;
  slow.action = FailpointAction::kLatency;
  slow.latency_ms = 300;
  ASSERT_TRUE(ConfigureFailpoint("crashsim.sweep_level", slow).ok());
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    StatusOr<JsonValue> response = client.Call(TopKRequest(1007, 5));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->GetString("status", ""), "DEADLINE_EXCEEDED");
    EXPECT_EQ(response->Find("scores"), nullptr);
  }
  server.Shutdown();
}

// serve.topk_ms (the cumulative /metrics histogram) and the rolling
// /statusz windows count the same requests: every topk request, rejected
// ones included.
TEST(ServerTest, EveryTopKRequestLandsInEveryLatencySink) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    const std::pair<JsonValue, const char*> requests[] = {
        {TopKRequest(1007, 5), "OK"},
        {TopKRequest(99999, 5), "NOT_FOUND"},
        {TopKRequest(1008, 5), "OK"},
        {TopKRequest(1003, 0), "INVALID_ARGUMENT"},
        {TopKRequest(1007, 5), "OK"},
        {TopKRequest(-1, 5), "NOT_FOUND"},
        {TopKRequest(1009, 3), "OK"},
        {TopKRequest(1003, 1'000'001), "INVALID_ARGUMENT"},
        {TopKRequest(1008, 5), "OK"},
    };
    for (const auto& [request, status] : requests) {
      StatusOr<JsonValue> response = client.Call(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response->GetString("status", ""), status);
    }
  }
  const double recorded = PrometheusSample(
      HttpBody(HttpGet(server.metrics_port(), "/metrics")),
      "crashsim_serve_topk_ms_count");

  StatusOr<JsonValue> doc =
      ParseJson(HttpBody(HttpGet(server.metrics_port(), "/statusz")));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* latency = doc->Find("latency");
  ASSERT_NE(latency, nullptr);
  ASSERT_NE(latency->Find("topk"), nullptr);
  EXPECT_EQ(recorded, latency->Find("topk")->GetInt("count", -1));
  EXPECT_EQ(recorded, 9.0);
  ASSERT_NE(doc->Find("slo"), nullptr);
  EXPECT_EQ(doc->Find("slo")->GetInt("window_total", -1), 9);
  server.Shutdown();
}

// Integer fields come from untrusted JSON numbers (doubles). Anything but a
// whole number in the field's range is INVALID_ARGUMENT, never silently
// truncated, wrapped or cast out of range.
TEST(ServerTest, NonIntegralOrOutOfRangeIntegerFieldsAreInvalidArgument) {
  ServerOptions options = TestServerOptions();
  options.engine.mc.trials_override = 80;
  Server server(TemporalProjection(), TestTemporalGraph(), options);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  struct Case {
    const char* op;
    const char* field;
    JsonValue value;
  };
  const Case rejected[] = {
      {"topk", "source", JsonValue(503.9)},
      {"topk", "source", JsonValue(1e300)},
      {"topk", "source", JsonValue(std::string("503"))},
      {"topk", "k", JsonValue(2.7)},
      {"topk", "k", JsonValue(1e300)},
      {"topk", "k", JsonValue(-1e300)},
      {"topk", "timeout_ms", JsonValue(0.5)},
      {"topk", "timeout_ms", JsonValue(int64_t{-1})},
      {"topk", "timeout_ms", JsonValue(1e300)},
      {"temporal", "source", JsonValue(503.5)},
      {"temporal", "source", JsonValue(-1e300)},
      {"temporal", "begin", JsonValue(4294967296.0)},
      {"temporal", "begin", JsonValue(0.5)},
      {"temporal", "end", JsonValue(4294967298.0)},
      {"temporal", "end", JsonValue(2.5)},
      {"temporal", "end", JsonValue(-1e300)},
      {"temporal", "timeout_ms", JsonValue(1.5)},
  };
  for (const Case& c : rejected) {
    JsonValue request = std::string(c.op) == "topk" ? TopKRequest(503, 5)
                                                    : TemporalRequest(503);
    request.Set(c.field, c.value);
    SCOPED_TRACE(request.Write());
    StatusOr<JsonValue> response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->GetString("status", ""), "INVALID_ARGUMENT");
    EXPECT_NE(response->GetString("message", "").find(c.field),
              std::string::npos);
  }

  // Valid values keep their meaning: a whole-valued double is that integer,
  // and any negative end is the last snapshot.
  JsonValue topk = TopKRequest(503, 5);
  topk.Set("k", JsonValue(3.0));
  topk.Set("timeout_ms", JsonValue(0.0));
  StatusOr<JsonValue> response = client.Call(topk);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status", ""), "OK");
  EXPECT_EQ(response->GetInt("k", -1), 3);
  for (const int64_t end : {int64_t{-1}, int64_t{-7}, int64_t{-4294967296}}) {
    JsonValue temporal = TemporalRequest(503);
    temporal.Set("begin", JsonValue(int64_t{1}));
    temporal.Set("end", JsonValue(end));
    response = client.Call(temporal);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->GetString("status", ""), "OK") << end;
    EXPECT_EQ(response->GetInt("begin", -1), 1);
    EXPECT_EQ(response->GetInt("end", -1), 3);
  }
  server.Shutdown();
}

// The temporal number and string fields are typed too: a present field of
// another JSON type is INVALID_ARGUMENT naming it, never replaced by the
// default ({"theta": "0.5"} must not run with theta = 0.05).
TEST(ServerTest, WrongTypedTemporalFieldsAreInvalidArgument) {
  ServerOptions options = TestServerOptions();
  options.engine.mc.trials_override = 80;
  Server server(TemporalProjection(), TestTemporalGraph(), options);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  const std::pair<const char*, JsonValue> rejected[] = {
      {"theta", JsonValue(std::string("0.5"))},
      {"theta", JsonValue(true)},
      {"theta", JsonValue()},
      {"tolerance", JsonValue(std::string("0.1"))},
      {"tolerance", JsonValue::Array()},
      {"kind", JsonValue(int64_t{5})},
      {"kind", JsonValue(false)},
      {"kind", JsonValue::Object()},
  };
  for (const auto& [field, value] : rejected) {
    JsonValue request = TemporalRequest(503);
    request.Set(field, value);
    SCOPED_TRACE(request.Write());
    StatusOr<JsonValue> response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->GetString("status", ""), "INVALID_ARGUMENT");
    EXPECT_NE(response->GetString("message", "").find(field),
              std::string::npos);
  }

  // Absent fields keep their defaults: a threshold query.
  JsonValue bare = JsonValue::Object();
  bare.Set("op", JsonValue(std::string("temporal")));
  bare.Set("source", JsonValue(int64_t{503}));
  StatusOr<JsonValue> response = client.Call(bare);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status", ""), "OK");
  EXPECT_EQ(response->GetString("kind", ""), "threshold");
  server.Shutdown();
}

}  // namespace
}  // namespace crashsim
