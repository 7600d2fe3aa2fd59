#include "serve/json.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/query_stats.h"
#include "util/event_log.h"
#include "util/status.h"

namespace crashsim {
namespace {

StatusOr<JsonValue> Roundtrip(const std::string& text) {
  ASSIGN_OR_RETURN(JsonValue parsed, ParseJson(text));
  return ParseJson(parsed.Write());
}

TEST(JsonTest, ParsesScalars) {
  StatusOr<JsonValue> v = ParseJson("null");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
  v = ParseJson("true");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->as_bool());
  v = ParseJson("-12.5e2");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->as_number(), -1250.0);
  v = ParseJson("\"hi\\nthere\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "hi\nthere");
}

TEST(JsonTest, ObjectPreservesInsertionOrderAndReplacesOnSet) {
  JsonValue obj = JsonValue::Object();
  obj.Set("b", JsonValue(int64_t{1}));
  obj.Set("a", JsonValue(int64_t{2}));
  obj.Set("b", JsonValue(int64_t{3}));
  EXPECT_EQ(obj.Write(), "{\"b\":3,\"a\":2}");
  EXPECT_EQ(obj.GetInt("b", -1), 3);
  EXPECT_EQ(obj.GetInt("missing", -1), -1);
}

TEST(JsonTest, TypedGettersFallBackOnWrongType) {
  StatusOr<JsonValue> v = ParseJson("{\"k\":\"ten\",\"theta\":0.25}");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetInt("k", 10), 10);
  EXPECT_DOUBLE_EQ(v->GetDouble("theta", 0.0), 0.25);
  EXPECT_EQ(v->GetString("k", ""), "ten");
}

TEST(JsonTest, DoublesRoundTripExactly) {
  const double value = 0.058241660574981729;
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue(value));
  StatusOr<JsonValue> back = ParseJson(arr.Write());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->items().size(), 1u);
  EXPECT_EQ(back->items()[0].as_number(), value);  // bit-exact
}

TEST(JsonTest, NonFiniteNumbersSerialiseAsNull) {
  JsonValue v(std::numeric_limits<double>::infinity());
  EXPECT_EQ(v.Write(), "null");
  EXPECT_EQ(JsonValue(std::nan("")).Write(), "null");
}

TEST(JsonTest, UnicodeEscapesDecodeIncludingSurrogatePairs) {
  StatusOr<JsonValue> v = ParseJson("\"\\u00e9\\uD83D\\uDE00\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "\xC3\xA9\xF0\x9F\x98\x80");
  EXPECT_EQ(ParseJson("\"\\uD83D\"").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_EQ(ParseJson("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseJson("{\"a\":1,}").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseJson("[1,2] trailing").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseJson("{\"a\"}").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseJson("01abc").status().code(), StatusCode::kInvalidArgument);
  // Parse errors carry a byte offset for debugging.
  const Status s = ParseJson("[1, nope]").status();
  EXPECT_NE(s.message().find("byte"), std::string::npos);
}

TEST(JsonTest, DepthLimitStopsHostileNesting) {
  std::string deep(100, '[');
  deep.append(100, ']');
  EXPECT_EQ(ParseJson(deep).status().code(), StatusCode::kInvalidArgument);
  // A document within the limit still parses.
  std::string ok(10, '[');
  ok.append(10, ']');
  EXPECT_TRUE(ParseJson(ok).ok());
}

TEST(JsonTest, NestedDocumentRoundTrips) {
  const std::string doc =
      "{\"op\":\"topk\",\"source\":1007,\"k\":10,"
      "\"nested\":{\"xs\":[1,2.5,\"s\",null,true]}}";
  StatusOr<JsonValue> twice = Roundtrip(doc);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(twice->Write(), doc);
}

// Every JSON emitter writes its strings with AppendJsonString, so a string
// holding every control character, both escaped ASCII characters and UTF-8
// parses back unchanged from each of them.
TEST(JsonTest, ControlCharactersRoundTripThroughEveryEmitter) {
  std::string nasty = "quote\" backslash\\ slash/ ";
  for (int c = 0; c < 0x20; ++c) nasty.push_back(static_cast<char>(c));
  nasty += "\x7f \xc3\xa9";

  JsonValue object = JsonValue::Object();
  object.Set(nasty, JsonValue(nasty));
  StatusOr<JsonValue> parsed = ParseJson(object.Write());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->members().size(), 1u);
  EXPECT_EQ(parsed->members()[0].first, nasty);
  EXPECT_EQ(parsed->GetString(nasty, ""), nasty);

  EventBuilder event("probe");
  event.Str("value", nasty);
  parsed = ParseJson(event.Finish());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetString("event", ""), "probe");
  EXPECT_EQ(parsed->GetString("value", ""), nasty);

  QueryStatsEnvelope envelope;
  envelope.query = nasty;
  envelope.algo = nasty + "!";
  parsed = ParseJson(QueryStatsJson(envelope, QueryStats{}));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetString("query", ""), nasty);
  EXPECT_EQ(parsed->GetString("algo", ""), nasty + "!");
}

}  // namespace
}  // namespace crashsim
