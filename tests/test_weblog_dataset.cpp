#include "weblog/dataset.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include "support/rng.h"

namespace fullweb::weblog {
namespace {

LogEntry entry(double time, const std::string& client, std::uint64_t bytes) {
  LogEntry e;
  e.timestamp = time;
  e.client = client;
  e.method = "GET";
  e.path = "/";
  e.status = 200;
  e.bytes = bytes;
  return e;
}

Dataset small_dataset() {
  std::vector<LogEntry> entries = {
      entry(100, "a", 10), entry(160, "a", 20), entry(100, "b", 5),
      entry(5000, "a", 30),  // a's second session (gap > 1800)
  };
  auto ds = Dataset::from_entries("test", entries);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

TEST(Dataset, FromEntriesBasics) {
  const auto ds = small_dataset();
  EXPECT_EQ(ds.name(), "test");
  EXPECT_EQ(ds.requests().size(), 4U);
  EXPECT_EQ(ds.sessions().size(), 3U);
  EXPECT_EQ(ds.distinct_clients(), 2U);
  EXPECT_EQ(ds.total_bytes(), 65U);
  EXPECT_DOUBLE_EQ(ds.t0(), 100.0);
  EXPECT_DOUBLE_EQ(ds.t1(), 5001.0);
}

TEST(Dataset, EmptyEntriesError) {
  EXPECT_FALSE(Dataset::from_entries("x", std::vector<LogEntry>{}).ok());
  EXPECT_FALSE(Dataset::from_requests("x", {}).ok());
}

TEST(Dataset, RequestTimesSorted) {
  const auto ds = small_dataset();
  const auto times = ds.request_times();
  ASSERT_EQ(times.size(), 4U);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

TEST(Dataset, SessionStartTimes) {
  const auto ds = small_dataset();
  const auto starts = ds.session_start_times();
  ASSERT_EQ(starts.size(), 3U);
  EXPECT_DOUBLE_EQ(starts[0], 100.0);
  EXPECT_DOUBLE_EQ(starts[2], 5000.0);
}

TEST(Dataset, RequestsPerSecondSeries) {
  const auto ds = small_dataset();
  const auto series = ds.requests_per_second();
  ASSERT_EQ(series.size(), 4901U);  // [100, 5001)
  EXPECT_DOUBLE_EQ(series[0], 2.0);  // two requests at t=100
  double total = 0;
  for (double c : series) total += c;
  EXPECT_DOUBLE_EQ(total, 4.0);
}

TEST(Dataset, SessionSampleVectors) {
  const auto ds = small_dataset();
  const auto lengths = ds.session_lengths();
  const auto counts = ds.session_request_counts();
  const auto bytes = ds.session_byte_counts();
  ASSERT_EQ(lengths.size(), 3U);
  ASSERT_EQ(counts.size(), 3U);
  ASSERT_EQ(bytes.size(), 3U);
  // Session list is sorted by start: a(100-160), b(100), a(5000).
  EXPECT_DOUBLE_EQ(counts[0] + counts[1] + counts[2], 4.0);
  EXPECT_DOUBLE_EQ(bytes[0] + bytes[1] + bytes[2], 65.0);
}

TEST(Dataset, SessionWindowFiltering) {
  const auto ds = small_dataset();
  const auto early = ds.session_lengths(0.0, 1000.0);
  EXPECT_EQ(early.size(), 2U);
  const auto late = ds.session_lengths(4000.0, 6000.0);
  EXPECT_EQ(late.size(), 1U);
}

TEST(Dataset, PartitionCountsEvents) {
  std::vector<LogEntry> entries;
  // 10 requests in hour 0, 30 in hour 1, 20 in hour 2 (distinct clients so
  // sessions are easy to count).
  for (int i = 0; i < 10; ++i)
    entries.push_back(entry(i * 10.0, "a" + std::to_string(i), 1));
  for (int i = 0; i < 30; ++i)
    entries.push_back(entry(3600 + i * 10.0, "b" + std::to_string(i), 1));
  for (int i = 0; i < 20; ++i)
    entries.push_back(entry(7200 + i * 10.0, "c" + std::to_string(i), 1));
  auto ds = Dataset::from_entries("p", entries);
  ASSERT_TRUE(ds.ok());

  const auto parts = ds.value().partition(3600.0);
  ASSERT_EQ(parts.size(), 3U);
  EXPECT_EQ(parts[0].request_count, 10U);
  EXPECT_EQ(parts[1].request_count, 30U);
  EXPECT_EQ(parts[2].request_count, 20U);
  EXPECT_EQ(parts[0].session_count, 10U);
}

TEST(Dataset, PickLowMedHigh) {
  std::vector<LogEntry> entries;
  for (int i = 0; i < 10; ++i)
    entries.push_back(entry(i * 10.0, "a" + std::to_string(i), 1));
  for (int i = 0; i < 30; ++i)
    entries.push_back(entry(3600 + i * 10.0, "b" + std::to_string(i), 1));
  for (int i = 0; i < 20; ++i)
    entries.push_back(entry(7200 + i * 10.0, "c" + std::to_string(i), 1));
  auto ds = Dataset::from_entries("p", entries);
  ASSERT_TRUE(ds.ok());

  const auto low = ds.value().pick(Load::kLow, 3600.0);
  const auto med = ds.value().pick(Load::kMed, 3600.0);
  const auto high = ds.value().pick(Load::kHigh, 3600.0);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(med.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(low.value().request_count, 10U);
  EXPECT_EQ(med.value().request_count, 20U);
  EXPECT_EQ(high.value().request_count, 30U);
}

TEST(Dataset, PickErrorsWithTooFewIntervals) {
  const auto ds = small_dataset();  // spans ~82 minutes
  EXPECT_FALSE(ds.pick(Load::kLow, 4.0 * 3600.0).ok());
}

TEST(Dataset, WeekPartitionHas42FourHourIntervals) {
  std::vector<LogEntry> entries;
  entries.push_back(entry(0.0, "x", 1));
  entries.push_back(entry(7 * 86400.0 - 1.0, "y", 1));
  auto ds = Dataset::from_entries("w", entries);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().partition(4 * 3600.0).size(), 42U);
}

// Build 8 hours of traffic at t in [0, 8h) with a distinctive count per
// hour so Low/Med/High selections are unambiguous: hour h gets 10*(h+1)
// requests, except hour 0 which gets just 2 (the global minimum).
Dataset hourly_dataset() {
  std::vector<LogEntry> entries;
  int id = 0;
  auto add_hour = [&](int hour, int count) {
    for (int i = 0; i < count; ++i)
      entries.push_back(
          entry(hour * 3600.0 + i * 3.0, "c" + std::to_string(id++), 1));
  };
  add_hour(0, 2);
  for (int h = 1; h < 8; ++h) add_hour(h, 10 * (h + 1));
  auto ds = Dataset::from_entries("hourly", entries);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

// An interval the window cannot be counted in (not finite, or shorter than
// the one second a CLF timestamp resolves) yields no partition, and pick
// names it; inf and 1e-300 once sized the partition from an out-of-range
// cast and wrote past an empty vector, and 1e-9 asked for 10^13 intervals.
TEST(Dataset, UncountableIntervalYieldsNoIntervals) {
  const auto ds = hourly_dataset();
  for (const double s : {std::numeric_limits<double>::infinity(), 1e-300, 1e-9,
                         0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_TRUE(ds.partition(s).empty()) << s;
    const auto picked = ds.pick(Load::kMed, s);
    ASSERT_FALSE(picked.ok()) << s;
    EXPECT_EQ(picked.error().category, "invalid_argument") << s;
    EXPECT_NE(picked.error().message.find("interval"), std::string::npos)
        << picked.error().message;
  }
  // One second is the shortest interval counted.
  EXPECT_EQ(ds.partition(1.0).size(), static_cast<std::size_t>(ds.t1() - ds.t0()));
}

// A finite window of any length used to build, and the per-second series
// over it then asked for one bin per second of it: two requests 1e15 s
// apart died in requests_per_second() and partition() with bad_alloc.
// Every constructor refuses a window longer than 2^25 s and names it.
TEST(Dataset, RejectsWindowLongerThanTheBound) {
  const double bound = std::ldexp(1.0, 25);
  const auto requests = [](double last) {
    return std::vector<Request>{Request{0.0, 0, 200, 1}, Request{last, 1, 200, 2}};
  };
  // [0, 2^25) is the longest window held.
  const auto at_bound = Dataset::from_requests("at-bound", requests(bound - 0.5));
  ASSERT_TRUE(at_bound.ok()) << at_bound.error().message;
  EXPECT_EQ(at_bound.value().t1() - at_bound.value().t0(), bound);

  const auto expect_rejected = [](const auto& ds, const std::string& what) {
    ASSERT_FALSE(ds.ok()) << what;
    EXPECT_EQ(ds.error().category, "invalid_argument") << what;
    EXPECT_NE(ds.error().message.find("observation window [0, "),
              std::string::npos)
        << ds.error().message;
  };
  for (const double last : {bound, 1e15}) {
    const std::string what = "last request at " + std::to_string(last);
    expect_rejected(Dataset::from_requests("wide", requests(last)), what);
    const std::vector<LogEntry> entries = {entry(0.0, "a", 1),
                                           entry(last, "b", 2)};
    expect_rejected(Dataset::from_entries("wide", entries), what);
  }

  // The streaming ingest: CLF lines five years apart.
  const std::string path =
      "/tmp/fullweb_wide_window_" + std::to_string(::getpid()) + ".log";
  {
    std::ofstream os(path, std::ios::binary);
    os << to_clf_line(entry(0.0, "a", 1)) << "\n"
       << to_clf_line(entry(5 * 365 * 86400.0, "b", 2)) << "\n";
  }
  const std::vector<std::string> paths = {path};
  expect_rejected(Dataset::from_clf_stream("wide", paths), "CLF stream");
  std::remove(path.c_str());
}

// The partition grid starts at the window start, so its first interval is
// always full and only a partial *last* interval is dropped.
TEST(Dataset, PickDefaultWindowUnchanged) {
  const auto ds = hourly_dataset();  // window ends mid-hour-7
  const auto low = ds.pick(Load::kLow, 3600.0);
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low.value().request_count, 2U);  // hour 0 is a full interval
  const auto high = ds.pick(Load::kHigh, 3600.0);
  ASSERT_TRUE(high.ok());
  // Hour 7 holds 80 requests but its interval is clipped at t1 (partial) and
  // dropped; hour 6 wins.
  EXPECT_EQ(high.value().request_count, 70U);
}

TEST(LoadNames, Strings) {
  EXPECT_EQ(to_string(Load::kLow), "Low");
  EXPECT_EQ(to_string(Load::kMed), "Med");
  EXPECT_EQ(to_string(Load::kHigh), "High");
}

}  // namespace
}  // namespace fullweb::weblog
