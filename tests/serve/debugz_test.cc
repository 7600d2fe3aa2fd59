#include "serve/debugz.h"

#include <chrono>
#include <future>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/crashsim.h"
#include "core/query_context.h"
#include "graph/generators.h"
#include "serve/json.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/trace.h"

namespace crashsim {
namespace {

// A connected local socket pair; [0] is the test's end, [1] the "peer".
class SocketPair {
 public:
  SocketPair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0); }
  ~SocketPair() {
    CloseOurs();
    ClosePeer();
  }
  int ours() const { return fds_[0]; }
  int peer() const { return fds_[1]; }
  void CloseOurs() {
    if (fds_[0] >= 0) close(fds_[0]);
    fds_[0] = -1;
  }
  void ClosePeer() {
    if (fds_[1] >= 0) close(fds_[1]);
    fds_[1] = -1;
  }

 private:
  int fds_[2] = {-1, -1};
};

void SendAll(int fd, const std::string& data) {
  ASSERT_EQ(send(fd, data.data(), data.size(), 0),
            static_cast<ssize_t>(data.size()));
}

TEST(ReadHttpRequestHeadTest, ReadsThroughTerminator) {
  SocketPair pair;
  SendAll(pair.peer(), "GET /statusz HTTP/1.1\r\nHost: x\r\n\r\n");
  StatusOr<std::string> head = ReadHttpRequestHead(pair.ours());
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(*head, "GET /statusz HTTP/1.1\r\nHost: x\r\n\r\n");
}

TEST(ReadHttpRequestHeadTest, ToleratesArbitrarilySplitWrites) {
  SocketPair pair;
  const std::string request = "GET /tracez HTTP/1.1\r\nHost: x\r\n\r\n";
  std::thread writer([&pair, &request] {
    for (size_t i = 0; i < request.size(); i += 3) {
      const std::string piece = request.substr(i, 3);
      send(pair.peer(), piece.data(), piece.size(), 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  StatusOr<std::string> head = ReadHttpRequestHead(pair.ours());
  writer.join();
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(*head, request);
}

TEST(ReadHttpRequestHeadTest, EofBeforeTerminatorIsUnavailable) {
  SocketPair pair;
  SendAll(pair.peer(), "GET /statusz HTT");
  pair.ClosePeer();
  const StatusOr<std::string> head = ReadHttpRequestHead(pair.ours());
  EXPECT_EQ(head.status().code(), StatusCode::kUnavailable);
}

TEST(ReadHttpRequestHeadTest, TimesOutOnSilentPeer) {
  SocketPair pair;
  SendAll(pair.peer(), "GET /sta");  // never finishes the head
  const StatusOr<std::string> head =
      ReadHttpRequestHead(pair.ours(), /*timeout_ms=*/100);
  EXPECT_EQ(head.status().code(), StatusCode::kUnavailable);
}

TEST(ReadHttpRequestHeadTest, RejectsOversizedHead) {
  SocketPair pair;
  const std::string huge =
      "GET /" + std::string(10000, 'a') + " HTTP/1.1\r\n\r\n";
  std::thread writer([&pair, &huge] {
    send(pair.peer(), huge.data(), huge.size(), 0);
  });
  const StatusOr<std::string> head = ReadHttpRequestHead(pair.ours());
  writer.join();
  EXPECT_EQ(head.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseHttpRequestLineTest, SplitsMethodAndPath) {
  const HttpRequestLine line =
      ParseHttpRequestLine("GET /statusz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(line.method, "GET");
  EXPECT_EQ(line.path, "/statusz");
}

TEST(ParseHttpRequestLineTest, StripsQueryString) {
  const HttpRequestLine line =
      ParseHttpRequestLine("GET /tracez?limit=5 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(line.method, "GET");
  EXPECT_EQ(line.path, "/tracez");
}

TEST(ParseHttpRequestLineTest, MalformedLineYieldsEmptyFields) {
  EXPECT_TRUE(ParseHttpRequestLine("").method.empty());
  EXPECT_TRUE(ParseHttpRequestLine("GARBAGE\r\n\r\n").path.empty());
}

TEST(SendHttpResponseTest, WritesStatusHeadersAndBody) {
  SocketPair pair;
  SendHttpResponse(pair.ours(), "HTTP/1.1 200 OK", "application/json",
                   "{\"ok\": true}");
  pair.CloseOurs();
  std::string got;
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(pair.peer(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    got.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(got.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(got.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(got.find("Content-Length: 12"), std::string::npos);
  EXPECT_NE(got.find("\r\n\r\n{\"ok\": true}"), std::string::npos);
}

// A scraper that asks for a large body and never reads must not wedge the
// listener: the send gives up at its 2 s budget. The watchdog shuts
// the peer down late, so a send without a timeout fails the bound instead
// of hanging the test.
TEST(SendHttpResponseTest, GivesUpOnPeerThatNeverReads) {
  SocketPair pair;
  std::promise<void> returned;
  std::thread watchdog([&pair, done = returned.get_future()] {
    if (done.wait_for(std::chrono::seconds(15)) != std::future_status::ready) {
      shutdown(pair.peer(), SHUT_RDWR);
    }
  });
  const std::string body(8u << 20, 'x');  // far beyond the socket buffers
  const auto start = std::chrono::steady_clock::now();
  SendHttpResponse(pair.ours(), "HTTP/1.1 200 OK", "application/json", body);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  returned.set_value();
  watchdog.join();
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(BuildSpanTreeJsonTest, RebuildsNestingFromBracketedEvents) {
  RequestTrace trace(17, RequestTrace::kServeCapacity);
  {
    const TraceRequestScope scope(&trace);
    TRACE_SPAN("serve.request");
    {
      TRACE_SPAN("executor.query");
      {
        TRACE_SPAN("engine.walk");
      }
    }
  }
  const JsonValue doc = BuildSpanTreeJson(trace);
  EXPECT_EQ(doc.GetInt("request_id", -1), 17);
  EXPECT_EQ(doc.GetInt("dropped", -1), 0);
  const JsonValue* threads = doc.Find("threads");
  ASSERT_NE(threads, nullptr);
  ASSERT_EQ(threads->items().size(), 1u);
  const JsonValue* spans = threads->items()[0].Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->items().size(), 1u);
  const JsonValue& root = spans->items()[0];
  EXPECT_EQ(root.GetString("name", ""), "serve.request");
  const JsonValue* children = root.Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->items().size(), 1u);
  const JsonValue& mid = children->items()[0];
  EXPECT_EQ(mid.GetString("name", ""), "executor.query");
  const JsonValue* grandchildren = mid.Find("children");
  ASSERT_NE(grandchildren, nullptr);
  ASSERT_EQ(grandchildren->items().size(), 1u);
  EXPECT_EQ(grandchildren->items()[0].GetString("name", ""), "engine.walk");
  // Parent spans cover their children.
  EXPECT_GE(root.GetDouble("dur_us", -1.0), mid.GetDouble("dur_us", -1.0));
}

TEST(BuildSpanTreeJsonTest, ParallelShardsAppearOnTheirOwnThreads) {
  RequestTrace trace(18, RequestTrace::kServeCapacity);
  {
    const TraceRequestScope scope(&trace);
    TRACE_SPAN("serve.request");
    ParallelFor(
        64, [](int64_t, int64_t) {}, /*min_chunk=*/1, /*max_threads=*/4);
  }
  const JsonValue doc = BuildSpanTreeJson(trace);
  const JsonValue* threads = doc.Find("threads");
  ASSERT_NE(threads, nullptr);
  // The submitting thread plus at least one pool worker recorded events.
  EXPECT_GE(threads->items().size(), 2u);
  int shard_spans = 0;
  for (const JsonValue& thread : threads->items()) {
    const JsonValue* spans = thread.Find("spans");
    ASSERT_NE(spans, nullptr);
    for (const JsonValue& span : spans->items()) {
      if (span.GetString("name", "") == "parallel_for.shard") ++shard_spans;
    }
  }
  EXPECT_GE(shard_spans, 1);
}

TEST(BuildSpanTreeJsonTest, OpenSpansAreClosedAtLastTimestamp) {
  // Simulate a trace that quiesced with a span still open (snapshot
  // semantics): the builder must still emit a structurally complete tree.
  RequestTrace trace(19, RequestTrace::kServeCapacity);
  trace.Append("serve.request", TraceEvent::Phase::kBegin, 0);
  trace.Append("engine.walk", TraceEvent::Phase::kBegin, 0);
  trace.Append("engine.walk", TraceEvent::Phase::kEnd, 0);
  // "serve.request" never ends.
  const JsonValue doc = BuildSpanTreeJson(trace);
  const JsonValue* threads = doc.Find("threads");
  ASSERT_NE(threads, nullptr);
  ASSERT_EQ(threads->items().size(), 1u);
  const JsonValue* spans = threads->items()[0].Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->items().size(), 1u);
  EXPECT_EQ(spans->items()[0].GetString("name", ""), "serve.request");
  EXPECT_GE(spans->items()[0].GetDouble("dur_us", -1.0), 0.0);
}

// Span name -> count, over a /tracez span list and its children.
void CountTreeSpans(const JsonValue& spans, std::map<std::string, int>* out) {
  for (const JsonValue& span : spans.items()) {
    ++(*out)[span.GetString("name", "")];
    if (const JsonValue* children = span.Find("children")) {
      CountTreeSpans(*children, out);
    }
  }
}

// The Chrome export, the aggregate table and the /tracez tree all read one
// reassembly, so they agree span name by span name on a real 2-thread query.
TEST(SpanForestTest, EveryExportCountsTheSameSpans) {
  Rng rng(5);
  const Graph g = ErdosRenyi(400, 2000, /*undirected=*/false, &rng);
  RequestTrace trace(31, RequestTrace::kRunCapacity);
  {
    const TraceRequestScope scope(&trace);
    CrashSimOptions opt;
    opt.mc.trials_override = 200;
    opt.num_threads = 2;
    CrashSim algo(opt);
    ASSERT_TRUE(algo.Bind(&g).ok());
    QueryContext ctx;
    // Partial over every node walks, so the trace holds trial blocks.
    std::vector<NodeId> all(static_cast<size_t>(g.num_nodes()));
    std::iota(all.begin(), all.end(), 0);
    EXPECT_EQ(algo.Partial(1, all, &ctx).trials_done, 200);
  }
  ASSERT_EQ(trace.dropped(), 0);

  std::map<std::string, int> chrome_begins;
  std::map<std::string, int> chrome_ends;
  const StatusOr<JsonValue> chrome = ParseJson(ExportChromeTrace(trace));
  ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();
  for (const JsonValue& e : chrome->Find("traceEvents")->items()) {
    const std::string phase = e.GetString("ph", "");
    if (phase == "B") ++chrome_begins[e.GetString("name", "")];
    if (phase == "E") ++chrome_ends[e.GetString("name", "")];
  }

  std::map<std::string, int> aggregate;
  for (const TraceAggregateRow& row : AggregateTrace(trace)) {
    aggregate[row.name] = static_cast<int>(row.count);
  }

  std::map<std::string, int> tree;
  const JsonValue doc = BuildSpanTreeJson(trace);
  int threads = 0;
  for (const JsonValue& thread : doc.Find("threads")->items()) {
    ++threads;
    CountTreeSpans(*thread.Find("spans"), &tree);
  }

  EXPECT_GE(threads, 2);
  for (const char* name :
       {"rev_reach.build", "crashsim.trial_block", "parallel_for",
        "parallel_for.shard"}) {
    EXPECT_GT(tree[name], 0) << name;
  }
  EXPECT_EQ(chrome_begins, tree);
  EXPECT_EQ(chrome_ends, tree);
  EXPECT_EQ(aggregate, tree);
}

TracezRing::Entry MakeEntry(uint64_t id) {
  TracezRing::Entry entry;
  entry.request_id = id;
  entry.op = "topk";
  entry.status = "OK";
  entry.elapsed_ms = static_cast<double>(id);
  return entry;
}

// A retained entry holds the request's collector, never more than one
// full trace's worth of events, and renders the same tree the live trace
// gives.
TEST(TracezRingTest, FullEntryStoresAtMostOneTraceOfRawEvents) {
  auto trace = std::make_shared<RequestTrace>(23, RequestTrace::kServeCapacity);
  {
    const TraceRequestScope scope(trace.get());
    for (size_t i = 0; i < RequestTrace::kServeCapacity; ++i) {
      TRACE_SPAN("engine.walk");  // two events each: the trace overflows
    }
  }
  ASSERT_EQ(trace->size(), RequestTrace::kServeCapacity);
  ASSERT_GT(trace->dropped(), 0);
  const std::string live = BuildSpanTreeJson(*trace).Write();

  TracezRing::Entry entry = MakeEntry(23);
  entry.trace = trace;
  EXPECT_LE(sizeof(TraceEvent), 32u);
  const size_t stored_bytes =
      sizeof(entry) + entry.op.capacity() + entry.status.capacity() +
      sizeof(RequestTrace) + trace->capacity() * sizeof(TraceEvent);
  EXPECT_LE(stored_bytes, 16u * 1024u + 256u);

  TracezRing ring(1);
  ring.Add(std::move(entry));
  trace.reset();  // the ring keeps the collector alive on its own
  const std::vector<TracezRing::Entry> snapshot = ring.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(BuildSpanTreeJson(*snapshot[0].trace).Write(), live);
}

TEST(TracezRingTest, KeepsNewestEntriesNewestFirst) {
  TracezRing ring(3);
  EXPECT_TRUE(ring.Snapshot().empty());
  for (uint64_t id = 1; id <= 5; ++id) ring.Add(MakeEntry(id));
  const std::vector<TracezRing::Entry> snapshot = ring.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].request_id, 5u);
  EXPECT_EQ(snapshot[1].request_id, 4u);
  EXPECT_EQ(snapshot[2].request_id, 3u);
}

TEST(TracezRingTest, PartialFillSnapshotsOnlyAddedEntries) {
  TracezRing ring(8);
  ring.Add(MakeEntry(1));
  ring.Add(MakeEntry(2));
  const std::vector<TracezRing::Entry> snapshot = ring.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].request_id, 2u);
  EXPECT_EQ(snapshot[1].request_id, 1u);
}

}  // namespace
}  // namespace crashsim
