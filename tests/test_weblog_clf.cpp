#include "weblog/clf.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "weblog/clf_reader.h"

namespace fullweb::weblog {
namespace {

TEST(ClfTimestamp, RoundTripsEpoch) {
  // 12-Jan-2004 00:00:00 UTC.
  const double epoch = 1073865600.0;
  const std::string text = format_clf_timestamp(epoch);
  EXPECT_EQ(text, "[12/Jan/2004:00:00:00 +0000]");
  const auto back = parse_clf_timestamp(text);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back.value(), epoch);
}

TEST(ClfTimestamp, KnownHistoricDate) {
  // The ClarkNet trace week: 28-Aug-1995.
  const auto t = parse_clf_timestamp("[28/Aug/1995:00:00:00 +0000]");
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t.value(), 809568000.0);
}

TEST(ClfTimestamp, TimezoneOffsetsApplied) {
  const auto utc = parse_clf_timestamp("[10/Oct/2000:13:55:36 +0000]");
  const auto pst = parse_clf_timestamp("[10/Oct/2000:13:55:36 -0700]");
  const auto cet = parse_clf_timestamp("[10/Oct/2000:13:55:36 +0100]");
  ASSERT_TRUE(utc.ok());
  ASSERT_TRUE(pst.ok());
  ASSERT_TRUE(cet.ok());
  EXPECT_DOUBLE_EQ(pst.value(), utc.value() + 7 * 3600.0);
  EXPECT_DOUBLE_EQ(cet.value(), utc.value() - 3600.0);
}

TEST(ClfTimestamp, LeapYearHandled) {
  const auto feb29 = parse_clf_timestamp("[29/Feb/2004:12:00:00 +0000]");
  ASSERT_TRUE(feb29.ok());
  const auto mar1 = parse_clf_timestamp("[01/Mar/2004:12:00:00 +0000]");
  ASSERT_TRUE(mar1.ok());
  EXPECT_DOUBLE_EQ(mar1.value() - feb29.value(), 86400.0);
}

TEST(ClfTimestamp, RejectsMalformed) {
  EXPECT_FALSE(parse_clf_timestamp("[12/Jxx/2004:00:00:00 +0000]").ok());
  EXPECT_FALSE(parse_clf_timestamp("[12-Jan-2004]").ok());
  EXPECT_FALSE(parse_clf_timestamp("").ok());
  EXPECT_FALSE(parse_clf_timestamp("[aa/Jan/2004:00:00:00 +0000]").ok());
}

TEST(ParseClfLine, CanonicalApacheExample) {
  const auto e = parse_clf_line(
      "127.0.0.1 - frank [10/Oct/2000:13:55:36 -0700] "
      "\"GET /apache_pb.gif HTTP/1.0\" 200 2326");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().client, "127.0.0.1");
  EXPECT_EQ(e.value().method, "GET");
  EXPECT_EQ(e.value().path, "/apache_pb.gif");
  EXPECT_EQ(e.value().protocol, "HTTP/1.0");
  EXPECT_EQ(e.value().status, 200);
  EXPECT_EQ(e.value().bytes, 2326U);
}

TEST(ParseClfLine, CombinedFormatTrailersIgnored) {
  const auto e = parse_clf_line(
      "10.0.0.1 - - [12/Jan/2004:08:30:00 +0000] \"GET /index.html HTTP/1.1\" "
      "200 512 \"http://referer.example/\" \"Mozilla/4.08\"");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().bytes, 512U);
  EXPECT_EQ(e.value().status, 200);
}

TEST(ParseClfLine, DashBytesBecomesZero) {
  const auto e = parse_clf_line(
      "10.0.0.1 - - [12/Jan/2004:08:30:00 +0000] \"GET /x HTTP/1.0\" 304 -");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().bytes, 0U);
  EXPECT_EQ(e.value().status, 304);
}

TEST(ParseClfLine, EmptyRequestLine) {
  const auto e = parse_clf_line(
      "10.0.0.1 - - [12/Jan/2004:08:30:00 +0000] \"-\" 408 -");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e.value().method.empty());
}

TEST(ParseClfLine, Http09RequestWithoutProtocol) {
  const auto e = parse_clf_line(
      "host - - [28/Aug/1995:00:00:01 +0000] \"GET /\" 200 100");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().method, "GET");
  EXPECT_EQ(e.value().path, "/");
  EXPECT_TRUE(e.value().protocol.empty());
}

TEST(ParseClfLine, SanitizedHostIdentifiers) {
  // NASA-Pub2 logs replace IPs with opaque ids — any token must work.
  const auto e = parse_clf_line(
      "user_4711 - - [12/Apr/2004:10:00:00 +0000] \"GET /doc.pdf HTTP/1.1\" "
      "200 9999");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().client, "user_4711");
}

TEST(ParseClfLine, RejectsStructurallyBroken) {
  EXPECT_FALSE(parse_clf_line("").ok());
  EXPECT_FALSE(parse_clf_line("onlyhost").ok());
  EXPECT_FALSE(parse_clf_line("h - - not-a-timestamp \"GET /\" 200 1").ok());
  EXPECT_FALSE(
      parse_clf_line("h - - [12/Jan/2004:08:30:00 +0000] \"GET /\" xx 1").ok());
  EXPECT_FALSE(
      parse_clf_line("h - - [12/Jan/2004:08:30:00 +0000] \"unterminated 200 1")
          .ok());
  EXPECT_FALSE(
      parse_clf_line("h - - [12/Jan/2004:08:30:00 +0000] \"GET /\" 200").ok());
}

TEST(ParseClfLine, EscapedQuotesInsideRequestHonored) {
  // Regression: find('"', 1) used to stop at the escaped quote, truncating
  // the request and rejecting the (valid) line on the leftover text.
  const auto e = parse_clf_line(
      "10.0.0.1 - - [12/Jan/2004:08:30:00 +0000] "
      "\"GET /file\\\"name\\\".html HTTP/1.0\" 200 99");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().method, "GET");
  EXPECT_EQ(e.value().path, "/file\"name\".html");
  EXPECT_EQ(e.value().protocol, "HTTP/1.0");
  EXPECT_EQ(e.value().status, 200);
  EXPECT_EQ(e.value().bytes, 99U);
}

TEST(ClfTimestamp, RejectsOutOfRangeFields) {
  // Regression: these used to wrap silently into a wrong epoch.
  EXPECT_FALSE(parse_clf_timestamp("[32/Jan/2004:00:00:00 +0000]").ok());
  EXPECT_FALSE(parse_clf_timestamp("[12/Jan/2004:25:00:00 +0000]").ok());
  EXPECT_FALSE(parse_clf_timestamp("[12/Jan/2004:00:61:00 +0000]").ok());
  EXPECT_FALSE(parse_clf_timestamp("[12/Jan/2004:00:00:61 +0000]").ok());
  EXPECT_FALSE(parse_clf_timestamp("[12/Jan/2004:00:00:00 +9999]").ok());
  EXPECT_FALSE(parse_clf_timestamp("[29/Feb/2003:00:00:00 +0000]").ok());
}

TEST(ClfTimestamp, RejectsTruncatedTimezoneOffsets) {
  // Regression: lengths between "no offset" (20) and a full "+HHMM" (26)
  // used to fall through to the lenient tail and parse as UTC.
  EXPECT_FALSE(parse_clf_timestamp("[12/Jan/2004:08:30:00 +05]").ok());
  EXPECT_FALSE(parse_clf_timestamp("[12/Jan/2004:08:30:00 +]").ok());
  EXPECT_FALSE(parse_clf_timestamp("[12/Jan/2004:08:30:00 +000]").ok());
  EXPECT_FALSE(parse_clf_timestamp("[12/Jan/2004:08:30:00 -1]").ok());
  // Separator at index 20 must be a space; the sign must be +/-.
  EXPECT_FALSE(parse_clf_timestamp("[12/Jan/2004:08:30:00+0000]").ok());
  EXPECT_FALSE(parse_clf_timestamp("[12/Jan/2004:08:30:00 ~0000]").ok());
  EXPECT_FALSE(parse_clf_timestamp("[12/Jan/2004:08:30:00 +00a0]").ok());
  // Omitting the offset entirely is still legal (defaults to UTC).
  const auto bare = parse_clf_timestamp("[12/Jan/2004:08:30:00]");
  const auto utc = parse_clf_timestamp("[12/Jan/2004:08:30:00 +0000]");
  ASSERT_TRUE(bare.ok());
  ASSERT_TRUE(utc.ok());
  EXPECT_DOUBLE_EQ(bare.value(), utc.value());
}

TEST(ParseClfLine, RejectsNonHttpStatusCodes) {
  // Regression: any parse_int-able token used to pass as a status.
  const auto line = [](const char* st) {
    return std::string("h - - [12/Jan/2004:08:30:00 +0000] \"GET /\" ") + st +
           " 1";
  };
  ClfParseReason reason = ClfParseReason::kNone;
  for (const char* st : {"-5", "9999999", "99", "600", "0200", "20x"}) {
    EXPECT_FALSE(parse_clf_line(line(st), &reason).ok()) << st;
    EXPECT_EQ(reason, ClfParseReason::kBadStatus) << st;
  }
  for (const char* st : {"100", "200", "404", "599"})
    EXPECT_TRUE(parse_clf_line(line(st)).ok()) << st;
}

TEST(ToClfLine, EscapesQuotesAndBackslashesInRequest) {
  LogEntry e;
  e.timestamp = 1073865600.0;
  e.client = "10.0.0.1";
  e.method = "GET";
  e.path = "/a\"b\\c";
  e.protocol = "HTTP/1.0";
  e.status = 200;
  e.bytes = 1;
  const std::string line = to_clf_line(e);
  EXPECT_NE(line.find("\\\""), std::string::npos);
  const auto back = parse_clf_line(line);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().path, e.path);
}

TEST(ToClfLine, SanitizesWhitespaceInClientSoRoundTripHolds) {
  // A client id containing spaces would shift every later CLF field; the
  // writer must emit a token the parser reads back as one field.
  LogEntry e;
  e.timestamp = 1073865600.0;
  e.client = "bad host\tid";
  e.method = "GET";
  e.path = "/p";
  e.protocol = "HTTP/1.0";
  e.status = 200;
  e.bytes = 7;
  const auto back = parse_clf_line(to_clf_line(e));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().client, "bad_host_id");
  EXPECT_EQ(back.value().method, e.method);
  EXPECT_EQ(back.value().path, e.path);
  EXPECT_EQ(back.value().status, e.status);
  EXPECT_EQ(back.value().bytes, e.bytes);
}

TEST(ToClfLine, RoundTripsThroughParser) {
  LogEntry e;
  e.timestamp = 1073865600.0 + 3661.0;
  e.client = "10.1.2.3";
  e.method = "GET";
  e.path = "/pages/p1.html";
  e.protocol = "HTTP/1.0";
  e.status = 200;
  e.bytes = 4242;
  const std::string line = to_clf_line(e);
  const auto back = parse_clf_line(line);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back.value().timestamp, e.timestamp);
  EXPECT_EQ(back.value().client, e.client);
  EXPECT_EQ(back.value().method, e.method);
  EXPECT_EQ(back.value().path, e.path);
  EXPECT_EQ(back.value().protocol, e.protocol);
  EXPECT_EQ(back.value().status, e.status);
  EXPECT_EQ(back.value().bytes, e.bytes);
}

TEST(ReadClfRecords, CountsMalformedAndParsesRest) {
  const std::string path = "/tmp/fullweb_clf_malformed.log";
  {
    std::ofstream os(path, std::ios::binary);
    os << "10.0.0.1 - - [12/Jan/2004:08:30:00 +0000] \"GET /a HTTP/1.0\" 200 1\n"
          "garbage line\n"
          "\n"
          "10.0.0.2 - - [12/Jan/2004:08:30:01 +0000] \"GET /b HTTP/1.0\" 404 2\n";
  }
  std::vector<LogEntry> entries;
  const auto stats = read_clf_records(path, {}, [&](const ClfRecord& r) {
    entries.push_back(ClfLineParser::materialize(r));
  });
  std::remove(path.c_str());
  ASSERT_TRUE(stats.ok());
  // Blank lines are skipped silently: counted neither as lines nor malformed.
  EXPECT_EQ(stats.value().malformed, 1U);
  EXPECT_EQ(stats.value().lines, 3U);
  ASSERT_EQ(entries.size(), 2U);
  EXPECT_EQ(entries[0].client, "10.0.0.1");
  EXPECT_EQ(entries[1].status, 404);
}

}  // namespace
}  // namespace fullweb::weblog
