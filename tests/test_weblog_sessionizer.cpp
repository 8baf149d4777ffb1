#include "weblog/sessionizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "support/rng.h"

namespace fullweb::weblog {
namespace {

Request req(double time, std::uint32_t client, std::uint64_t bytes = 100) {
  Request r;
  r.time = time;
  r.client = client;
  r.bytes = bytes;
  return r;
}

TEST(Sessionizer, SingleClientSingleSession) {
  const std::vector<Request> rs = {req(0, 1), req(60, 1), req(120, 1)};
  const auto sessions = sessionize(rs);
  ASSERT_EQ(sessions.size(), 1U);
  EXPECT_EQ(sessions[0].client, 1U);
  EXPECT_DOUBLE_EQ(sessions[0].start, 0.0);
  EXPECT_DOUBLE_EQ(sessions[0].end, 120.0);
  EXPECT_EQ(sessions[0].requests, 3U);
  EXPECT_EQ(sessions[0].bytes, 300U);
  EXPECT_DOUBLE_EQ(sessions[0].length(), 120.0);
}

TEST(Sessionizer, GapAboveThresholdSplits) {
  const std::vector<Request> rs = {req(0, 1), req(1800, 1), req(3601, 1)};
  // Gap 0->1800 == threshold: same session; 1800->3601 = 1801 > threshold.
  const auto sessions = sessionize(rs);
  ASSERT_EQ(sessions.size(), 2U);
  EXPECT_EQ(sessions[0].requests, 2U);
  EXPECT_EQ(sessions[1].requests, 1U);
  EXPECT_DOUBLE_EQ(sessions[1].start, 3601.0);
}

TEST(Sessionizer, ExactThresholdStaysTogether) {
  const std::vector<Request> rs = {req(0, 1), req(1800, 1)};
  EXPECT_EQ(sessionize(rs).size(), 1U);
  const std::vector<Request> rs2 = {req(0, 1), req(1800.5, 1)};
  EXPECT_EQ(sessionize(rs2).size(), 2U);
}

TEST(Sessionizer, CustomThreshold) {
  const std::vector<Request> rs = {req(0, 1), req(100, 1), req(250, 1)};
  SessionizerOptions opts;
  opts.threshold_seconds = 120.0;
  const auto sessions = sessionize(rs, opts);
  ASSERT_EQ(sessions.size(), 2U);  // 100->250 gap of 150 splits
}

TEST(Sessionizer, ThresholdSensitivity) {
  // The paper's [12] observation: smaller thresholds produce more sessions.
  std::vector<Request> rs;
  for (int i = 0; i < 100; ++i) rs.push_back(req(i * 400.0, 7));
  SessionizerOptions tight{300.0};
  SessionizerOptions loose{500.0};
  EXPECT_GT(sessionize(rs, tight).size(), sessionize(rs, loose).size());
  EXPECT_EQ(sessionize(rs, loose).size(), 1U);
  EXPECT_EQ(sessionize(rs, tight).size(), 100U);
}

TEST(Sessionizer, InterleavedClientsSeparated) {
  const std::vector<Request> rs = {req(0, 1), req(1, 2), req(2, 1), req(3, 2)};
  const auto sessions = sessionize(rs);
  ASSERT_EQ(sessions.size(), 2U);
  EXPECT_EQ(sessions[0].client, 1U);
  EXPECT_EQ(sessions[0].requests, 2U);
  EXPECT_EQ(sessions[1].client, 2U);
}

TEST(Sessionizer, UnsortedInputHandled) {
  std::vector<Request> rs = {req(120, 1), req(0, 1), req(60, 1)};
  const auto sessions = sessionize(rs);
  ASSERT_EQ(sessions.size(), 1U);
  EXPECT_DOUBLE_EQ(sessions[0].start, 0.0);
  EXPECT_DOUBLE_EQ(sessions[0].end, 120.0);
}

TEST(Sessionizer, ShuffleInvariance) {
  support::Rng rng(1);
  std::vector<Request> rs;
  for (std::uint32_t c = 0; c < 20; ++c) {
    double t = rng.uniform(0, 1000);
    for (int i = 0; i < 30; ++i) {
      rs.push_back(req(t, c, c + 1));
      t += rng.uniform(1, 4000);
    }
  }
  auto baseline = sessionize(rs);
  // Fisher-Yates shuffle and re-run.
  for (std::size_t i = rs.size(); i > 1; --i)
    std::swap(rs[i - 1], rs[rng.below(i)]);
  const auto shuffled = sessionize(rs);
  ASSERT_EQ(shuffled.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(shuffled[i].client, baseline[i].client);
    EXPECT_DOUBLE_EQ(shuffled[i].start, baseline[i].start);
    EXPECT_EQ(shuffled[i].requests, baseline[i].requests);
    EXPECT_EQ(shuffled[i].bytes, baseline[i].bytes);
  }
}

TEST(Sessionizer, OutputSortedByStart) {
  const std::vector<Request> rs = {req(100, 2), req(0, 1), req(50, 3)};
  const auto sessions = sessionize(rs);
  ASSERT_EQ(sessions.size(), 3U);
  EXPECT_TRUE(std::is_sorted(
      sessions.begin(), sessions.end(),
      [](const Session& a, const Session& b) { return a.start < b.start; }));
}

TEST(Sessionizer, ConservationInvariants) {
  // Total requests and bytes are preserved exactly.
  support::Rng rng(2);
  std::vector<Request> rs;
  std::uint64_t total_bytes = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto bytes = rng.below(10000);
    rs.push_back(req(rng.uniform(0, 7 * 86400.0),
                     static_cast<std::uint32_t>(rng.below(200)), bytes));
    total_bytes += bytes;
  }
  const auto sessions = sessionize(rs);
  std::uint64_t session_requests = 0;
  std::uint64_t session_bytes = 0;
  for (const auto& s : sessions) {
    session_requests += s.requests;
    session_bytes += s.bytes;
    EXPECT_GE(s.end, s.start);
  }
  EXPECT_EQ(session_requests, rs.size());
  EXPECT_EQ(session_bytes, total_bytes);
}

TEST(Sessionizer, EmptyInput) {
  EXPECT_TRUE(sessionize({}).empty());
}

TEST(Sessionizer, CanonicalOrderBreaksStartTiesByClient) {
  // Equal start times order by client id — the canonical total order, so
  // the table does not depend on the order in which sessions closed.
  const std::vector<Request> rs = {req(10, 5), req(10, 1), req(10, 3)};
  const auto sessions = sessionize(rs);
  ASSERT_EQ(sessions.size(), 3U);
  EXPECT_EQ(sessions[0].client, 1U);
  EXPECT_EQ(sessions[1].client, 3U);
  EXPECT_EQ(sessions[2].client, 5U);
}

TEST(Sessionizer, SingleRequestSessionHasZeroLength) {
  const auto sessions = sessionize(std::vector<Request>{req(42.0, 9, 7)});
  ASSERT_EQ(sessions.size(), 1U);
  EXPECT_DOUBLE_EQ(sessions[0].length(), 0.0);
  EXPECT_EQ(sessions[0].requests, 1U);
  EXPECT_EQ(sessions[0].bytes, 7U);
}

TEST(Sessionizer, SameTimestampRequestsGrouped) {
  // 1-second log granularity makes identical timestamps common.
  const std::vector<Request> rs = {req(10, 1), req(10, 1), req(10, 1)};
  const auto sessions = sessionize(rs);
  ASSERT_EQ(sessions.size(), 1U);
  EXPECT_EQ(sessions[0].requests, 3U);
}

}  // namespace
}  // namespace fullweb::weblog
