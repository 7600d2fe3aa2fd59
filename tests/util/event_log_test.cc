#include "util/event_log.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>  // lint:allow(thread-primitives): test drives EventLog from raw producer threads on purpose
#include <vector>

#include "gtest/gtest.h"

namespace crashsim {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(EventBuilderTest, EmitsSchemaTimestampAndTypedFields) {
  const std::string line = EventBuilder("unit_test")
                               .Str("name", "x")
                               .Int("count", -3)
                               .UInt("id", 18446744073709551615ull)
                               .Double("ratio", 0.5)
                               .Bool("flag", true)
                               .Raw("nested", "{\"a\": 1}")
                               .Finish();
  EXPECT_EQ(line.find("{\"schema\": \"crashsim.event.v1\""), 0u);
  EXPECT_NE(line.find("\"ts_unix_ms\": "), std::string::npos);
  EXPECT_NE(line.find("\"event\": \"unit_test\""), std::string::npos);
  EXPECT_NE(line.find("\"name\": \"x\""), std::string::npos);
  EXPECT_NE(line.find("\"count\": -3"), std::string::npos);
  EXPECT_NE(line.find("\"id\": 18446744073709551615"), std::string::npos);
  EXPECT_NE(line.find("\"ratio\": 0.5"), std::string::npos);
  EXPECT_NE(line.find("\"flag\": true"), std::string::npos);
  EXPECT_NE(line.find("\"nested\": {\"a\": 1}"), std::string::npos);
  EXPECT_EQ(line.back(), '}');
}

TEST(EventBuilderTest, EscapesStringsAndRejectsNonFiniteDoubles) {
  const std::string line = EventBuilder("esc")
                               .Str("s", "a\"b\\c\nd\te")
                               .Double("inf", 1.0 / 0.0)
                               .Finish();
  EXPECT_NE(line.find("\"s\": \"a\\\"b\\\\c\\nd\\te\""), std::string::npos);
  EXPECT_NE(line.find("\"inf\": null"), std::string::npos);
}

TEST(EventLogTest, WritesOneJsonLinePerEvent) {
  const std::string path = TempPath("event_log_basic.jsonl");
  std::remove(path.c_str());
  {
    EventLog::Options options;
    options.path = path;
    EventLog log(options);
    ASSERT_TRUE(log.ok());
    log.Log(EventBuilder("first").Int("n", 1).Finish());
    log.Log(EventBuilder("second").Int("n", 2).Finish());
    log.Flush();
  }
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"event\": \"first\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\": \"second\""), std::string::npos);
}

TEST(EventLogTest, DestructorDrainsPendingLines) {
  const std::string path = TempPath("event_log_drain.jsonl");
  std::remove(path.c_str());
  {
    EventLog::Options options;
    options.path = path;
    EventLog log(options);
    for (int i = 0; i < 100; ++i) {
      log.Log(EventBuilder("tick").Int("i", i).Finish());
    }
    // No Flush: the destructor must drain everything already enqueued.
  }
  EXPECT_EQ(ReadLines(path).size(), 100u);
}

TEST(EventLogTest, AppendsAcrossInstances) {
  const std::string path = TempPath("event_log_append.jsonl");
  std::remove(path.c_str());
  for (int run = 0; run < 2; ++run) {
    EventLog::Options options;
    options.path = path;
    EventLog log(options);
    log.Log(EventBuilder("run").Int("run", run).Finish());
  }
  EXPECT_EQ(ReadLines(path).size(), 2u);
}

// Value of integer field `key` in a rendered event line.
int IntField(const std::string& line, const std::string& key) {
  const size_t at = line.find("\"" + key + "\": ");
  if (at == std::string::npos) {
    ADD_FAILURE() << key << " missing from " << line;
    return -1;
  }
  return std::stoi(line.substr(at + key.size() + 4));
}

TEST(EventLogTest, ConcurrentLoggersAllLand) {
  const std::string path = TempPath("event_log_mt.jsonl");
  std::remove(path.c_str());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  {
    EventLog::Options options;
    options.path = path;
    options.queue_capacity = 4096;  // larger than the total: no drops
    EventLog log(options);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&log, t] {
        for (int i = 0; i < kPerThread; ++i) {
          log.Log(EventBuilder("mt").Int("t", t).Int("i", i).Finish());
        }
      });
    }
    for (std::thread& t : workers) t.join();
    log.Flush();
    EXPECT_EQ(log.dropped(), 0);
  }
  const std::vector<std::string> lines = ReadLines(path);
  EXPECT_EQ(lines.size(), static_cast<size_t>(kThreads * kPerThread));
  // Interleaving across producers is free, but each producer's lines must
  // land in the order it logged them.
  std::vector<int> next_i(kThreads, 0);
  for (const std::string& line : lines) {
    const int t = IntField(line, "t");
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    EXPECT_EQ(IntField(line, "i"), next_i[static_cast<size_t>(t)]) << line;
    ++next_i[static_cast<size_t>(t)];
  }
}

TEST(EventLogTest, OverflowDropsAndCountsInsteadOfBlocking) {
  for (const size_t capacity : {size_t{4}, size_t{1}}) {
    SCOPED_TRACE(testing::Message() << "queue_capacity " << capacity);
    const std::string path = TempPath("event_log_drop.jsonl");
    std::remove(path.c_str());
    EventLog::Options options;
    options.path = path;
    options.queue_capacity = capacity;
    EventLog log(options);
    // Far more lines than the queue can hold, pushed faster than one
    // writer can drain: some must drop, none may block, and the tally must
    // add up.
    constexpr int kLines = 10000;
    for (int i = 0; i < kLines; ++i) {
      log.Log(EventBuilder("burst").Int("i", i).Finish());
    }
    log.Flush();
    const int64_t dropped = log.dropped();
    EXPECT_GT(dropped, 0);
    EXPECT_LT(dropped, kLines);  // the writer kept up with at least some
    EXPECT_EQ(static_cast<int64_t>(ReadLines(path).size()) + dropped, kLines);
  }
}

TEST(EventLogTest, UnopenablePathFallsBackToStderr) {
  EventLog::Options options;
  options.path = "/nonexistent-dir-for-sure/event.log";
  EventLog log(options);
  EXPECT_FALSE(log.ok());
  // Still usable: the line goes to stderr rather than crashing.
  log.Log(EventBuilder("fallback").Finish());
  log.Flush();
}

}  // namespace
}  // namespace crashsim
