#include "util/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/parallel.h"
#include "util/timer.h"

namespace crashsim {
namespace {

// Occurrences of `needle` in `hay` (non-overlapping).
int CountOccurrences(const std::string& hay, const std::string& needle) {
  int count = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// A collector sized for a whole traced run, like the CLI's.
std::unique_ptr<RequestTrace> RunTrace() {
  return std::make_unique<RequestTrace>(/*request_id=*/0,
                                        RequestTrace::kRunCapacity);
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  RequestTrace trace(1, /*capacity=*/8);
  const TraceRequestScope scope(&trace);
  {
    const TraceRequestScope off(nullptr);  // a null scope disables recording
    TRACE_SPAN("never.recorded");
  }
  EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceTest, BeginEndPairsAreBalancedAndNested) {
  RequestTrace trace(/*request_id=*/42, /*capacity=*/8);
  {
    const TraceRequestScope scope(&trace);
    TRACE_SPAN("outer");
    {
      TRACE_SPAN("inner");
    }
  }
  EXPECT_EQ(trace.request_id(), 42u);
  EXPECT_EQ(trace.dropped(), 0);
  const std::span<const TraceEvent> events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kBegin);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[1].phase, TraceEvent::Phase::kBegin);
  EXPECT_STREQ(events[2].name, "inner");
  EXPECT_EQ(events[2].phase, TraceEvent::Phase::kEnd);
  EXPECT_STREQ(events[3].name, "outer");
  EXPECT_EQ(events[3].phase, TraceEvent::Phase::kEnd);
  // Timestamps are monotonic within the thread.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST(TraceTest, AggregateSplitsSelfFromTotal) {
  const auto trace = RunTrace();
  {
    const TraceRequestScope scope(trace.get());
    TRACE_SPAN("agg.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      TRACE_SPAN("agg.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  const std::vector<TraceAggregateRow> rows = AggregateTrace(*trace);
  const TraceAggregateRow* outer = nullptr;
  const TraceAggregateRow* inner = nullptr;
  for (const TraceAggregateRow& r : rows) {
    if (r.name == "agg.outer") outer = &r;
    if (r.name == "agg.inner") inner = &r;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1);
  EXPECT_EQ(inner->count, 1);
  // outer's total covers inner; outer's self excludes it exactly.
  EXPECT_GE(outer->total_ns, inner->total_ns);
  EXPECT_EQ(outer->self_ns, outer->total_ns - inner->total_ns);
  // inner has no children: self == total, and it slept >= 10ms.
  EXPECT_EQ(inner->self_ns, inner->total_ns);
  EXPECT_GE(inner->total_ns, 9 * 1000 * 1000);
  const std::string table = ExportTraceAggregateTable(*trace);
  EXPECT_NE(table.find("agg.outer"), std::string::npos);
  EXPECT_NE(table.find("self_ms"), std::string::npos);
}

TEST(TraceTest, ChromeExportIsBalancedJson) {
  const auto trace = RunTrace();
  {
    const TraceRequestScope scope(trace.get());
    TRACE_SPAN("chrome \"quoted\\name\"");  // exercises JSON escaping
    TRACE_SPAN("chrome.second");
  }
  const std::string json = ExportChromeTrace(*trace);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""),
            CountOccurrences(json, "\"ph\": \"E\""));
  // The quote in the span name must be escaped, never bare inside a string.
  EXPECT_NE(json.find("chrome \\\"quoted\\\\name\\\""), std::string::npos);
  // Braces balance (cheap structural sanity without a JSON parser; the
  // bench smoke lane runs the real parser via python).
  EXPECT_EQ(CountOccurrences(json, "{"), CountOccurrences(json, "}"));
}

TEST(TraceTest, UnclosedSpanIsSynthesizedClosed) {
  auto* leak = new TraceSpan("pre.start");  // never recorded: no collector
  const auto trace = RunTrace();
  TraceSpan* open = nullptr;
  {
    const TraceRequestScope scope(trace.get());
    open = new TraceSpan("left.open");
    {
      TRACE_SPAN("closed.child");
    }
  }
  // Exported while "left.open" has not ended.
  const std::string json = ExportChromeTrace(*trace);
  // The open span appears and the export is still balanced.
  EXPECT_NE(json.find("left.open"), std::string::npos);
  EXPECT_EQ(json.find("pre.start"), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""),
            CountOccurrences(json, "\"ph\": \"E\""));
  delete open;
  delete leak;
}

TEST(TraceTest, ParallelForShardsCarryFlowEvents) {
  const auto trace = RunTrace();
  std::atomic<int64_t> sum{0};
  {
    const TraceRequestScope scope(trace.get());
    // min_chunk 1 and an explicit 2-thread budget: even a single-core
    // host's one-worker pool receives a shard, so a flow arrow must exist.
    ParallelFor(
        8, [&sum](int64_t begin, int64_t end) { sum.fetch_add(end - begin); },
        /*min_chunk=*/1, /*max_threads=*/2);
  }
  EXPECT_EQ(sum.load(), 8);

  std::vector<uint64_t> flow_out_ids;
  std::vector<uint64_t> flow_in_ids;
  bool saw_shard_span = false;
  for (const TraceEvent& e : trace->events()) {
    if (e.phase == TraceEvent::Phase::kFlowOut) {
      flow_out_ids.push_back(e.flow_id);
    } else if (e.phase == TraceEvent::Phase::kFlowIn) {
      flow_in_ids.push_back(e.flow_id);
    } else if (e.phase == TraceEvent::Phase::kBegin &&
               std::string(e.name) == "parallel_for.shard") {
      saw_shard_span = true;
    }
  }
  EXPECT_TRUE(saw_shard_span);
  ASSERT_FALSE(flow_out_ids.empty());
  ASSERT_FALSE(flow_in_ids.empty());
  // Every shard-side arrow terminates one spawned by a ParallelFor call.
  for (uint64_t id : flow_in_ids) {
    EXPECT_NE(id, 0u);
    EXPECT_NE(std::find(flow_out_ids.begin(), flow_out_ids.end(), id),
              flow_out_ids.end());
  }
  // And the Chrome export renders them as s/f events sharing ids.
  const std::string json = ExportChromeTrace(*trace);
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
}

TEST(TraceTest, OverflowDropsEventsButStaysBalanced) {
  RequestTrace trace(/*request_id=*/0, /*capacity=*/64);
  {
    const TraceRequestScope scope(&trace);
    TRACE_SPAN("outer");  // its end event is dropped with the rest
    // 2 events per span against a 64-event collector: guaranteed overflow.
    for (int i = 0; i < 100; ++i) {
      TRACE_SPAN("spam");
    }
  }
  EXPECT_EQ(trace.size(), 64u);
  EXPECT_GT(trace.dropped(), 0);
  const std::string json = ExportChromeTrace(trace);
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""),
            CountOccurrences(json, "\"ph\": \"E\""));
  const std::string table = ExportTraceAggregateTable(trace);
  EXPECT_NE(table.find("dropped"), std::string::npos);
}

TEST(TraceTest, FlowHelpersNoOpWhenDisabledOrZero) {
  RequestTrace trace(1, /*capacity=*/8);
  TraceFlowOut(NewTraceFlowId());  // no collector installed: no event
  TraceFlowIn(7);
  {
    const TraceRequestScope scope(&trace);
    TraceFlowOut(0);  // id 0 = "nothing recorded at id-mint time": no event
    TraceFlowIn(0);
  }
  EXPECT_EQ(trace.size(), 0u);
}

TEST(RequestTraceTest, CollectsSpansWhileGlobalTracingIsOff) {
  // There is no process-wide switch: an installed collector alone records.
  ASSERT_EQ(CurrentRequestTrace(), nullptr);
  RequestTrace trace(/*request_id=*/42, RequestTrace::kServeCapacity);
  {
    const TraceRequestScope scope(&trace);
    TRACE_SPAN("request.outer");
    {
      TRACE_SPAN("request.inner");
    }
  }
  EXPECT_EQ(trace.request_id(), 42u);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_STREQ(trace.event(0).name, "request.outer");
  EXPECT_EQ(trace.event(0).phase, TraceEvent::Phase::kBegin);
  EXPECT_STREQ(trace.event(1).name, "request.inner");
  EXPECT_STREQ(trace.event(2).name, "request.inner");
  EXPECT_EQ(trace.event(2).phase, TraceEvent::Phase::kEnd);
  EXPECT_STREQ(trace.event(3).name, "request.outer");
  EXPECT_EQ(trace.event(3).phase, TraceEvent::Phase::kEnd);
  EXPECT_EQ(trace.dropped(), 0);
  // Once the scope is gone, spans record nowhere.
  {
    TRACE_SPAN("request.after");
  }
  EXPECT_EQ(trace.size(), 4u);
}

TEST(RequestTraceTest, ScopesNestAndRestore) {
  RequestTrace outer_trace(1, /*capacity=*/8);
  RequestTrace inner_trace(2, /*capacity=*/8);
  EXPECT_EQ(CurrentRequestTrace(), nullptr);
  {
    const TraceRequestScope outer(&outer_trace);
    EXPECT_EQ(CurrentRequestTrace(), &outer_trace);
    {
      const TraceRequestScope inner(&inner_trace);
      EXPECT_EQ(CurrentRequestTrace(), &inner_trace);
      TRACE_SPAN("nested.span");
    }
    EXPECT_EQ(CurrentRequestTrace(), &outer_trace);
  }
  EXPECT_EQ(CurrentRequestTrace(), nullptr);
  EXPECT_EQ(inner_trace.size(), 2u);
  EXPECT_EQ(outer_trace.size(), 0u);
}

TEST(RequestTraceTest, OverflowDropsAndCounts) {
  constexpr size_t kCapacity = 32;
  RequestTrace trace(3, kCapacity);
  const TraceRequestScope scope(&trace);
  for (size_t i = 0; i < kCapacity; ++i) {  // 2x capacity events
    TRACE_SPAN("request.spam");
  }
  EXPECT_EQ(trace.capacity(), kCapacity);
  EXPECT_EQ(trace.size(), kCapacity);
  EXPECT_EQ(trace.dropped(), static_cast<int64_t>(kCapacity));
}

TEST(RequestTraceTest, ParallelForShardsInheritTheRequestScope) {
  RequestTrace trace(7, RequestTrace::kServeCapacity);
  {
    const TraceRequestScope scope(&trace);
    TRACE_SPAN("request.parallel");
    std::atomic<int64_t> sum{0};
    ParallelFor(
        8, [&sum](int64_t begin, int64_t end) { sum.fetch_add(end - begin); },
        /*min_chunk=*/1, /*max_threads=*/2);
    EXPECT_EQ(sum.load(), 8);
  }
  // Worker threads recorded their shard spans into this request's trace,
  // linked back to the spawning ParallelFor call by matching flow ids.
  bool saw_shard = false;
  std::vector<uint64_t> flow_out_ids;
  std::vector<uint64_t> flow_in_ids;
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace.event(i);
    if (e.phase == TraceEvent::Phase::kFlowOut) {
      flow_out_ids.push_back(e.flow_id);
    } else if (e.phase == TraceEvent::Phase::kFlowIn) {
      flow_in_ids.push_back(e.flow_id);
    } else if (e.phase == TraceEvent::Phase::kBegin &&
               std::string(e.name) == "parallel_for.shard") {
      saw_shard = true;
    }
  }
  EXPECT_TRUE(saw_shard);
  ASSERT_FALSE(flow_in_ids.empty());
  for (const uint64_t id : flow_in_ids) {
    EXPECT_NE(std::find(flow_out_ids.begin(), flow_out_ids.end(), id),
              flow_out_ids.end());
  }
}

TEST(RequestTraceTest, SpanRecordsToInstallTimeCollector) {
  // A span records to the collector current at its *construction*: a scope
  // that ends while the span is open must not lose the End event.
  RequestTrace trace(9, /*capacity=*/8);
  auto scope = std::make_unique<TraceRequestScope>(&trace);
  auto span = std::make_unique<TraceSpan>("straddling.span");
  scope.reset();  // uninstall while the span is open
  span.reset();   // End still lands in `trace`
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.event(1).phase, TraceEvent::Phase::kEnd);
}

TEST(TraceTest, DisabledSpanOverheadIsNanoseconds) {
  ASSERT_EQ(CurrentRequestTrace(), nullptr);
  constexpr int kIters = 2'000'000;
  // Best of three reps: the bound guards the order of magnitude (one
  // thread-local load + branch ≈ 1-2 ns), not a precise figure; the minimum shields the
  // guard from scheduler noise on loaded single-core CI hosts.
  double best_ns = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    const Stopwatch sw;
    for (int i = 0; i < kIters; ++i) {
      TRACE_SPAN("overhead.probe");
    }
    best_ns = std::min(best_ns, sw.ElapsedSeconds() * 1e9 / kIters);
  }
  EXPECT_LT(best_ns, 30.0) << "disabled TRACE_SPAN must stay out of the "
                              "hot-path cost model";
}

}  // namespace
}  // namespace crashsim
