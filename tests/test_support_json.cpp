// Tests for the shared JSON reader/writer (support/json.h): parse shapes,
// malformed-input rejection, deterministic writer output, and double
// round-tripping — the properties the validation-report drift checker and
// the bench_compare gates both lean on.
#include "support/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace {

using fullweb::support::JsonWriter;
using fullweb::support::json_format_double;
using fullweb::support::json_parse;
using fullweb::support::json_quote;

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json_parse("null").has_value());
  EXPECT_EQ(json_parse("true")->boolean(), true);
  EXPECT_EQ(json_parse("false")->boolean(), false);
  EXPECT_DOUBLE_EQ(*json_parse("3.5")->number(), 3.5);
  EXPECT_DOUBLE_EQ(*json_parse("-1e3")->number(), -1000.0);
  EXPECT_EQ(*json_parse("\"hi\"")->string(), "hi");
}

TEST(JsonParse, NestedDocument) {
  const auto doc = json_parse(R"({
    "benchmarks": [
      {"name": "bm_a", "real_time": 12.5, "time_unit": "ns"},
      {"name": "bm_b", "real_time": 1.5, "time_unit": "us"}
    ],
    "context": {"threads": 8}
  })");
  ASSERT_TRUE(doc.has_value());
  const auto* benches = doc->find("benchmarks");
  ASSERT_NE(benches, nullptr);
  ASSERT_NE(benches->array(), nullptr);
  ASSERT_EQ(benches->array()->size(), 2u);
  EXPECT_EQ(*(*benches->array())[0].find("name")->string(), "bm_a");
  EXPECT_DOUBLE_EQ(*doc->find("context")->find("threads")->number(), 8.0);
}

TEST(JsonParse, StringEscapes) {
  const auto doc = json_parse(R"("a\"b\\c\nd")");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(*doc->string(), "a\"b\\c\nd");
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_FALSE(json_parse("").has_value());
  EXPECT_FALSE(json_parse("{").has_value());
  EXPECT_FALSE(json_parse("[1, 2").has_value());
  EXPECT_FALSE(json_parse("{\"a\": }").has_value());
  EXPECT_FALSE(json_parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(json_parse("nulll").has_value());
  EXPECT_FALSE(json_parse("1 2").has_value());  // trailing garbage
  EXPECT_FALSE(json_parse("'single'").has_value());
}

TEST(JsonParse, NestingDeeperThan256IsMalformed) {
  // Each container level is one recursion frame; hostile depth must come
  // back as malformed, not overflow the stack.
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(json_parse(arrays(256)).has_value());
  EXPECT_FALSE(json_parse(arrays(257)).has_value());
  EXPECT_FALSE(json_parse(std::string(1000000, '[')).has_value());
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_FALSE(json_parse(objects).has_value());
}

TEST(JsonParse, LookupOnWrongTypesIsNull) {
  const auto doc = json_parse("[1, 2, 3]");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->object(), nullptr);
  EXPECT_EQ(doc->find("anything"), nullptr);
  EXPECT_FALSE(doc->number().has_value());
}

TEST(JsonFormatDouble, RoundTripsExactly) {
  for (double x : {0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e-300, 6.02e23,
                   0.9499999999999, 123456789.123456789}) {
    const std::string s = json_format_double(x);
    EXPECT_EQ(std::stod(s), x) << s;
  }
}

TEST(JsonQuote, EscapesControlAndQuote) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("a\nb"), "\"a\\nb\"");
}

TEST(JsonWriter, ProducesParseableDeterministicOutput) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "selftest");
  w.field("pass", true);
  w.field("count", std::size_t{3});
  w.key("cells");
  w.begin_array();
  for (int i = 0; i < 2; ++i) {
    w.begin_object();
    w.field("bias", 0.25 * i);
    w.end_object();
  }
  w.end_array();
  w.key("nothing");
  w.null();
  w.end_object();
  const std::string doc = std::move(w).str();

  const auto parsed = json_parse(doc);
  ASSERT_TRUE(parsed.has_value()) << doc;
  EXPECT_EQ(*parsed->find("name")->string(), "selftest");
  EXPECT_EQ(*parsed->find("pass")->boolean(), true);
  EXPECT_DOUBLE_EQ(*parsed->find("count")->number(), 3.0);
  ASSERT_EQ(parsed->find("cells")->array()->size(), 2u);
  EXPECT_DOUBLE_EQ(*(*parsed->find("cells")->array())[1].find("bias")->number(),
                   0.25);

  // Byte-determinism: an identical call sequence yields identical bytes.
  JsonWriter w2;
  w2.begin_object();
  w2.field("name", "selftest");
  w2.field("pass", true);
  w2.field("count", std::size_t{3});
  w2.key("cells");
  w2.begin_array();
  for (int i = 0; i < 2; ++i) {
    w2.begin_object();
    w2.field("bias", 0.25 * i);
    w2.end_object();
  }
  w2.end_array();
  w2.key("nothing");
  w2.null();
  w2.end_object();
  EXPECT_EQ(doc, std::move(w2).str());
}

TEST(JsonWriter, WriterOutputSurvivesParserRoundTrip) {
  JsonWriter w;
  w.begin_array();
  w.value(1.0 / 3.0);
  w.value("esc\"aped");
  w.value(false);
  w.end_array();
  const std::string doc = std::move(w).str();
  const auto parsed = json_parse(doc);
  ASSERT_TRUE(parsed.has_value());
  const auto& arr = *parsed->array();
  EXPECT_DOUBLE_EQ(*arr[0].number(), 1.0 / 3.0);
  EXPECT_EQ(*arr[1].string(), "esc\"aped");
  EXPECT_EQ(*arr[2].boolean(), false);
}

}  // namespace
