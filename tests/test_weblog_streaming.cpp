// Streaming ingest subsystem: chunked parallel CLF reader, incremental
// sessionizer, and Dataset::from_clf_stream — pinned bit-identical to a
// serial reference ingest at every thread count, with memory bounded by
// open sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include "support/executor.h"
#include "support/rng.h"
#include "synth/generator.h"
#include "weblog/clf.h"
#include "weblog/clf_reader.h"
#include "weblog/dataset.h"
#include "weblog/sessionizer.h"

namespace fullweb::weblog {
namespace {

bool same_request(const Request& a, const Request& b) {
  return a.time == b.time && a.client == b.client && a.status == b.status &&
         a.bytes == b.bytes;
}

bool same_session(const Session& a, const Session& b) {
  return a.client == b.client && a.start == b.start && a.end == b.end &&
         a.requests == b.requests && a.bytes == b.bytes;
}

/// Datasets must agree field-for-field (bit-identical tables).
void expect_identical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.requests().size(), b.requests().size());
  for (std::size_t i = 0; i < a.requests().size(); ++i)
    ASSERT_TRUE(same_request(a.requests()[i], b.requests()[i])) << "request " << i;
  ASSERT_EQ(a.sessions().size(), b.sessions().size());
  for (std::size_t i = 0; i < a.sessions().size(); ++i)
    ASSERT_TRUE(same_session(a.sessions()[i], b.sessions()[i])) << "session " << i;
  EXPECT_DOUBLE_EQ(a.t0(), b.t0());
  EXPECT_DOUBLE_EQ(a.t1(), b.t1());
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  EXPECT_EQ(a.distinct_clients(), b.distinct_clients());
}

/// Serial reference ingest: std::getline + parse_clf_line over each file in
/// order. Fed to from_entries, it is the table from_clf_stream must match
/// bit for bit.
std::vector<LogEntry> parse_serially(const std::vector<std::string>& paths) {
  std::vector<LogEntry> entries;
  for (const auto& path : paths) {
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line)) {
      auto e = parse_clf_line(line);
      if (e.ok()) entries.push_back(std::move(e).value());
    }
  }
  return entries;
}

/// Every record read_clf_records delivers, as owning entries.
std::vector<LogEntry> read_entries(const std::string& path,
                                   const ClfReaderOptions& opts,
                                   IngestStats* stats = nullptr) {
  std::vector<LogEntry> entries;
  auto r = read_clf_records(path, opts, [&](const ClfRecord& rec) {
    entries.push_back(ClfLineParser::materialize(rec));
  });
  EXPECT_TRUE(r.ok());
  if (r.ok() && stats != nullptr) *stats = r.value();
  return entries;
}

class StreamingIngestTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : files_) std::remove(p.c_str());
  }

  std::string write_file(const std::string& name,
                         const std::vector<std::string>& lines,
                         const char* eol = "\n") {
    // The pid keeps concurrent runs of this binary (the plain, TSan and
    // ASan ctest entries) from deleting each other's files.
    const std::string path = "/tmp/fullweb_stream_" + name + "_" +
                             std::to_string(::getpid()) + ".log";
    std::ofstream os(path, std::ios::binary);
    for (const auto& l : lines) os << l << eol;
    files_.push_back(path);
    return path;
  }

  /// A quarter-day of synthetic ClarkNet traffic rendered as CLF text.
  std::string write_synthetic(const std::string& name, double duration,
                              double scale) {
    support::Rng rng(42);
    synth::GeneratorOptions gen;
    gen.duration = duration;
    gen.scale = scale;
    auto workload =
        synth::generate_workload(synth::ServerProfile::clarknet(), gen, rng);
    EXPECT_TRUE(workload.ok());
    support::Rng rng2(43);
    std::vector<std::string> lines;
    for (const auto& e : synth::to_log_entries(workload.value(), rng2))
      lines.push_back(to_clf_line(e));
    return write_file(name, lines);
  }

  std::vector<std::string> files_;
};

TEST_F(StreamingIngestTest, ReaderDeliversFileOrderAtAnyThreadCount) {
  const std::string path = write_synthetic("order", 4 * 3600.0, 0.1);

  auto read_all = [&](std::size_t threads, std::size_t chunk) {
    support::Executor ex(threads);
    ClfReaderOptions opts;
    opts.chunk_bytes = chunk;
    opts.executor = &ex;
    IngestStats stats;
    auto entries = read_entries(path, opts, &stats);
    EXPECT_GT(stats.chunks, 1U);
    EXPECT_EQ(stats.parsed, entries.size());
    return entries;
  };

  const auto serial = read_all(1, 4096);
  const auto parallel = read_all(8, 4096);
  const auto parallel_big = read_all(8, 64 * 1024);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), parallel_big.size());
  ASSERT_GT(serial.size(), 100U);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].client, parallel[i].client) << i;
    ASSERT_EQ(serial[i].timestamp, parallel[i].timestamp) << i;
    ASSERT_EQ(serial[i].bytes, parallel[i].bytes) << i;
    ASSERT_EQ(serial[i].client, parallel_big[i].client) << i;
  }
}

TEST_F(StreamingIngestTest, FromClfStreamBitIdenticalToBatch) {
  const std::string path = write_synthetic("bitident", 6 * 3600.0, 0.15);

  // Serial reference: parse the file in order, then from_entries.
  auto batch = Dataset::from_entries("batch", parse_serially({path}));
  ASSERT_TRUE(batch.ok());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    support::Executor ex(threads);
    StreamIngestOptions opts;
    opts.reader.chunk_bytes = 8 * 1024;  // force many chunks
    opts.reader.executor = &ex;
    StreamIngestReport report;
    const std::vector<std::string> paths = {path};
    auto stream = Dataset::from_clf_stream("stream", paths, opts, &report);
    ASSERT_TRUE(stream.ok()) << "threads=" << threads;
    EXPECT_TRUE(report.sessionized_incrementally);
    expect_identical(batch.value(), stream.value());
  }
}

TEST_F(StreamingIngestTest, TraceLargerThanChunkBudgetStaysBounded) {
  // 4000 requests, but clients arrive one after another and go idle: with a
  // 60 s threshold at most 2 sessions are ever open, so the sessionizer's
  // working set must stay O(open sessions) even though the trace is orders
  // of magnitude larger than one chunk.
  std::vector<std::string> lines;
  LogEntry e;
  e.method = "GET";
  e.path = "/x";
  e.protocol = "HTTP/1.0";
  e.status = 200;
  e.bytes = 10;
  for (int c = 0; c < 400; ++c) {
    e.client = "client" + std::to_string(c);
    for (int i = 0; i < 10; ++i) {
      e.timestamp = 1073865600.0 + c * 100.0 + i * 5.0;
      lines.push_back(to_clf_line(e));
    }
  }
  const std::string path = write_file("bounded", lines);

  StreamIngestOptions opts;
  opts.sessionizer.threshold_seconds = 60.0;
  opts.reader.chunk_bytes = 4096;  // file is ~300 KB >> one chunk
  StreamIngestReport report;
  const std::vector<std::string> paths = {path};
  auto ds = Dataset::from_clf_stream("bounded", paths, opts, &report);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(report.files.size(), 1U);
  EXPECT_GT(report.files[0].chunks, 10U);
  EXPECT_EQ(report.files[0].parsed, 4000U);
  EXPECT_EQ(ds.value().sessions().size(), 400U);
  EXPECT_TRUE(report.sessionized_incrementally);
  // The bounded-memory claim: the trace exceeds the chunk budget many times
  // over, yet at most two sessions (handover between consecutive clients)
  // were ever simultaneously open.
  EXPECT_LE(report.peak_open_sessions, 2U);
}

TEST_F(StreamingIngestTest, MalformedLinesCountedByReason) {
  const std::string good =
      "10.0.0.1 - - [12/Jan/2004:08:30:00 +0000] \"GET /a HTTP/1.0\" 200 1";
  const std::string path = write_file(
      "reasons",
      {
          good,
          "short",                                                        // missing fields
          "h - - not-a-stamp \"GET /\" 200 1",                            // bad timestamp
          "h - - [32/Jan/2004:08:30:00 +0000] \"GET /\" 200 1",           // out of range
          "h - - [12/Jan/2004:08:30:00 +0000] \"unterminated 200 1",      // bad request
          "h - - [12/Jan/2004:08:30:00 +0000] \"GET /\" xx 1",            // bad status
          "h - - [12/Jan/2004:08:30:00 +0000] \"GET /\" 200 -7",          // bad bytes
          good,
      });

  ClfReaderOptions opts;
  std::size_t delivered = 0;
  auto stats =
      read_clf_records(path, opts, [&](const ClfRecord&) { ++delivered; });
  ASSERT_TRUE(stats.ok());
  const IngestStats& s = stats.value();
  EXPECT_EQ(delivered, 2U);
  EXPECT_EQ(s.parsed, 2U);
  EXPECT_EQ(s.lines, 8U);
  EXPECT_EQ(s.malformed, 6U);
  auto count = [&](ClfParseReason r) {
    return s.malformed_by_reason[static_cast<std::size_t>(r)];
  };
  EXPECT_EQ(count(ClfParseReason::kMissingFields), 1U);
  EXPECT_EQ(count(ClfParseReason::kBadTimestamp), 2U);
  EXPECT_EQ(count(ClfParseReason::kBadRequest), 1U);
  EXPECT_EQ(count(ClfParseReason::kBadStatus), 1U);
  EXPECT_EQ(count(ClfParseReason::kBadBytes), 1U);
  EXPECT_FALSE(s.summary().empty());
}

TEST_F(StreamingIngestTest, UnsortedInputFallsBackToBatchSessionization) {
  LogEntry e;
  e.method = "GET";
  e.path = "/";
  e.status = 200;
  e.bytes = 1;
  std::vector<std::string> lines;
  for (const double t : {100.0, 40.0, 70.0, 10.0, 130.0}) {
    e.client = "c" + std::to_string(static_cast<int>(t) % 2);
    e.timestamp = 1073865600.0 + t;
    lines.push_back(to_clf_line(e));
  }
  const std::string path = write_file("unsorted", lines);

  StreamIngestReport report;
  const std::vector<std::string> paths = {path};
  auto stream = Dataset::from_clf_stream("s", paths, {}, &report);
  ASSERT_TRUE(stream.ok());
  EXPECT_FALSE(report.sessionized_incrementally);

  auto batch = Dataset::from_entries("b", parse_serially({path}));
  ASSERT_TRUE(batch.ok());
  expect_identical(batch.value(), stream.value());
}

TEST_F(StreamingIngestTest, OpenFailureRecordedPerFile) {
  const std::string good = write_synthetic("openfail", 3600.0, 0.1);
  const std::vector<std::string> paths = {"/nonexistent/dir/a.log", good};
  StreamIngestReport report;
  auto ds = Dataset::from_clf_stream("open", paths, {}, &report);
  ASSERT_TRUE(ds.ok());  // one readable file suffices
  ASSERT_EQ(report.files.size(), 2U);
  EXPECT_TRUE(report.files[0].open_failed);
  EXPECT_EQ(report.files[0].parsed, 0U);
  EXPECT_FALSE(report.files[1].open_failed);
  EXPECT_GT(report.files[1].parsed, 0U);

  const std::vector<std::string> all_bad = {"/nope/x.log", "/nope/y.log"};
  EXPECT_FALSE(Dataset::from_clf_stream("none", all_bad).ok());
}

TEST_F(StreamingIngestTest, EmptyReadableFileIsNotAnOpenFailure) {
  const std::string empty = write_file("empty", {});
  const std::string good = write_file(
      "after_empty",
      {"10.0.0.1 - - [12/Jan/2004:08:30:00 +0000] \"GET /a HTTP/1.0\" 200 1"});
  const std::vector<std::string> paths = {empty, good};
  StreamIngestReport report;
  auto ds = Dataset::from_clf_stream("empty", paths, {}, &report);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(report.files.size(), 2U);
  EXPECT_FALSE(report.files[0].open_failed);
  EXPECT_EQ(report.files[0].lines, 0U);
  EXPECT_EQ(report.files[0].parsed, 0U);
  EXPECT_EQ(report.files[1].parsed, 1U);
}

// Figure 1's merge step through the one ingest path: redundant replicas each
// log the requests they served, so their lines interleave in time. Both
// files together must give what one time-ordered log of the same lines
// gives, except for client ids, which follow first appearance in file order.
TEST_F(StreamingIngestTest, InterleavedReplicaLogsMergeLikeOneTimeOrderedFile) {
  support::Rng rng(42);
  synth::GeneratorOptions gen;
  gen.duration = 3 * 3600.0;
  gen.scale = 0.1;
  auto workload =
      synth::generate_workload(synth::ServerProfile::clarknet(), gen, rng);
  ASSERT_TRUE(workload.ok());
  support::Rng rng2(43);
  const auto traffic = synth::to_log_entries(workload.value(), rng2);
  ASSERT_GT(traffic.size(), 100U);

  // One client alternates between the replicas once a minute, starting one
  // second before the rest of the traffic: first line of replica A and of
  // the merged log, so it is client 0 in both datasets. Each replica alone
  // would give it a 5-request session; merged it has one of 10.
  LogEntry alt;
  alt.client = "192.0.2.1";
  alt.method = "GET";
  alt.path = "/alt";
  alt.protocol = "HTTP/1.0";
  alt.status = 200;
  alt.bytes = 4321;
  const double alt_start = std::floor(traffic.front().timestamp) - 1.0;
  std::vector<std::string> lines_a, lines_b, lines_merged;
  std::vector<std::pair<double, std::string>> by_time;
  for (int k = 0; k < 10; ++k) {
    alt.timestamp = alt_start + 60.0 * k;
    const std::string line = to_clf_line(alt);
    (k % 2 == 0 ? lines_a : lines_b).push_back(line);
    by_time.emplace_back(alt.timestamp, line);
  }
  for (const auto& e : traffic) {
    const std::string line = to_clf_line(e);
    (rng2.below(2) == 0 ? lines_a : lines_b).push_back(line);
    by_time.emplace_back(e.timestamp, line);
  }
  std::stable_sort(by_time.begin(), by_time.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [t, line] : by_time) lines_merged.push_back(line);
  const std::vector<std::string> pair_paths = {
      write_file("replica_a", lines_a), write_file("replica_b", lines_b)};
  const std::vector<std::string> merged_path = {
      write_file("replica_merged", lines_merged)};

  StreamIngestReport pair_report, merged_report;
  auto pair = Dataset::from_clf_stream("pair", pair_paths, {}, &pair_report);
  auto merged =
      Dataset::from_clf_stream("merged", merged_path, {}, &merged_report);
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(merged.ok());
  EXPECT_FALSE(pair_report.sessionized_incrementally);
  EXPECT_TRUE(merged_report.sessionized_incrementally);
  ASSERT_EQ(pair_report.files.size(), 2U);
  EXPECT_EQ(pair_report.files[0].parsed, lines_a.size());
  EXPECT_EQ(pair_report.files[1].parsed, lines_b.size());

  for (const Dataset* ds : {&pair.value(), &merged.value()}) {
    std::vector<Session> alt_sessions;
    for (const auto& s : ds->sessions())
      if (s.client == 0) alt_sessions.push_back(s);
    ASSERT_EQ(alt_sessions.size(), 1U) << ds->name();
    EXPECT_EQ(alt_sessions[0].start, alt_start);
    EXPECT_EQ(alt_sessions[0].end, alt_start + 540.0);
    EXPECT_EQ(alt_sessions[0].requests, 10U);
  }

  const Dataset& p = pair.value();
  const Dataset& m = merged.value();
  EXPECT_EQ(p.request_times(), m.request_times());
  EXPECT_EQ(p.total_bytes(), m.total_bytes());
  EXPECT_EQ(p.t0(), m.t0());
  EXPECT_EQ(p.t1(), m.t1());
  EXPECT_EQ(p.distinct_clients(), m.distinct_clients());
  // Requests that share a second may sit in either order, so compare the
  // (time, bytes) multisets, and sessions without their client ids.
  auto time_bytes = [](const Dataset& ds) {
    std::vector<std::pair<double, std::uint64_t>> out;
    for (const auto& r : ds.requests()) out.emplace_back(r.time, r.bytes);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(time_bytes(p), time_bytes(m));
  auto session_rows = [](const Dataset& ds) {
    std::vector<std::tuple<double, double, std::uint64_t, std::uint64_t>> out;
    for (const auto& s : ds.sessions())
      out.emplace_back(s.start, s.end, s.requests, s.bytes);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(session_rows(p), session_rows(m));
}

TEST_F(StreamingIngestTest, MultiFileConcatenationMatchesSequentialBatch) {
  const std::string a = write_synthetic("multi_a", 2 * 3600.0, 0.1);
  // Second file continues after the first: the concatenation contract
  // (InterleavedReplicaLogsMergeLikeOneTimeOrderedFile covers replicas).
  std::vector<LogEntry> entries = parse_serially({a});
  double last = entries.back().timestamp;
  std::vector<std::string> lines;
  LogEntry e;
  e.method = "GET";
  e.path = "/tail";
  e.status = 200;
  e.bytes = 77;
  for (int i = 0; i < 500; ++i) {
    e.client = "late" + std::to_string(i % 7);
    e.timestamp = last + 10.0 + i;
    lines.push_back(to_clf_line(e));
    entries.push_back(e);
  }
  const std::string b = write_file("multi_b", lines);

  auto batch = Dataset::from_entries("batch", entries);
  ASSERT_TRUE(batch.ok());
  support::Executor ex(4);
  StreamIngestOptions opts;
  opts.reader.chunk_bytes = 8 * 1024;
  opts.reader.executor = &ex;
  StreamIngestReport report;
  const std::vector<std::string> paths = {a, b};
  auto stream = Dataset::from_clf_stream("stream", paths, opts, &report);
  ASSERT_TRUE(stream.ok());
  ASSERT_EQ(report.files.size(), 2U);
  expect_identical(batch.value(), stream.value());
}

TEST_F(StreamingIngestTest, MissingTrailingNewlineAndCrlfHandled) {
  const std::string line1 =
      "10.0.0.1 - - [12/Jan/2004:08:30:00 +0000] \"GET /a HTTP/1.0\" 200 1";
  const std::string line2 =
      "10.0.0.2 - - [12/Jan/2004:08:30:05 +0000] \"GET /b HTTP/1.0\" 200 2";
  const std::string path =
      "/tmp/fullweb_stream_nonl_" + std::to_string(::getpid()) + ".log";
  {
    std::ofstream os(path, std::ios::binary);
    os << line1 << "\r\n" << line2;  // CRLF + no trailing newline
  }
  files_.push_back(path);

  IngestStats stats;
  const auto entries = read_entries(path, {}, &stats);
  EXPECT_EQ(stats.parsed, 2U);
  EXPECT_EQ(stats.malformed, 0U);
  ASSERT_EQ(entries.size(), 2U);
  EXPECT_EQ(entries[1].bytes, 2U);
}

// ---------------------------------------------------------------------------
// StreamingSessionizer unit behavior.

Request req(double time, std::uint32_t client, std::uint64_t bytes = 100) {
  Request r;
  r.time = time;
  r.client = client;
  r.bytes = bytes;
  return r;
}

/// The threshold rule written out per client: sort by (client, time), split
/// where a gap exceeds the threshold. The executable spec the one
/// sessionizer is checked against, so it is never compared with itself.
std::vector<Session> per_client_sessions(std::vector<Request> rs,
                                         const SessionizerOptions& opts) {
  std::sort(rs.begin(), rs.end(), [](const Request& a, const Request& b) {
    if (a.client != b.client) return a.client < b.client;
    return a.time < b.time;
  });
  std::vector<Session> out;
  for (const Request& r : rs) {
    if (out.empty() || out.back().client != r.client ||
        r.time - out.back().end > opts.threshold_seconds)
      out.push_back(Session{r.client, r.time, r.time, 0, 0});
    out.back().end = r.time;
    out.back().requests += 1;
    out.back().bytes += r.bytes;
  }
  std::sort(out.begin(), out.end(), session_order);
  return out;
}

TEST(StreamingSessionizer, MatchesBatchOnRandomizedSortedTraces) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (const double threshold : {30.0, 300.0, 1800.0}) {
      support::Rng rng(seed);
      std::vector<Request> rs;
      for (int i = 0; i < 4000; ++i)
        rs.push_back(req(rng.uniform(0.0, 86400.0),
                         static_cast<std::uint32_t>(rng.below(150)),
                         rng.below(5000)));

      SessionizerOptions opts;
      opts.threshold_seconds = threshold;
      const auto expected = per_client_sessions(rs, opts);
      // sessionize() on the unsorted trace takes its copy-and-sort path.
      const auto via_sessionize = sessionize(rs, opts);

      std::sort(rs.begin(), rs.end(),
                [](const Request& a, const Request& b) { return a.time < b.time; });
      StreamingSessionizer ss(opts);
      for (const auto& r : rs) ss.add(r);
      EXPECT_FALSE(ss.saw_unsorted());
      EXPECT_LE(ss.peak_open_sessions(), 150U);
      const auto streamed = ss.finish();

      ASSERT_EQ(expected.size(), streamed.size())
          << "seed=" << seed << " threshold=" << threshold;
      ASSERT_EQ(expected.size(), via_sessionize.size())
          << "seed=" << seed << " threshold=" << threshold;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_TRUE(same_session(expected[i], streamed[i]))
            << "seed=" << seed << " threshold=" << threshold << " i=" << i;
        ASSERT_TRUE(same_session(expected[i], via_sessionize[i]))
            << "seed=" << seed << " threshold=" << threshold << " i=" << i;
      }
    }
  }
}

TEST(StreamingSessionizer, OpenSetStaysBoundedByActiveClients) {
  // 20 clients over 2000 requests: idle sessions close as the stream moves
  // on, so the open set never exceeds the client count, and the table is
  // the per-client grouping.
  support::Rng rng(9);
  std::vector<Request> rs;
  for (int i = 0; i < 2000; ++i)
    rs.push_back(req(i * 10.0, static_cast<std::uint32_t>(rng.below(20))));

  SessionizerOptions opts;
  opts.threshold_seconds = 50.0;
  const auto expected = per_client_sessions(rs, opts);

  StreamingSessionizer ss(opts);
  for (const auto& r : rs) {
    ss.add(r);
    EXPECT_LE(ss.open_sessions(), 20U);
  }
  const auto table = ss.finish();
  ASSERT_EQ(table.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_TRUE(same_session(expected[i], table[i])) << i;
}

TEST(StreamingSessionizer, FlagsOutOfOrderInput) {
  StreamingSessionizer ss;
  ss.add(req(100.0, 1));
  ss.add(req(100.0, 2));  // equal times are fine
  EXPECT_FALSE(ss.saw_unsorted());
  ss.add(req(50.0, 1));
  EXPECT_TRUE(ss.saw_unsorted());
}

TEST(StreamingSessionizer, PeakTracksSimultaneouslyOpenSessions) {
  SessionizerOptions opts;
  opts.threshold_seconds = 10.0;
  StreamingSessionizer ss(opts);
  for (std::uint32_t c = 0; c < 5; ++c) ss.add(req(0.0, c));
  EXPECT_EQ(ss.open_sessions(), 5U);
  ss.add(req(100.0, 99));  // everything idle-evicted, one new
  EXPECT_EQ(ss.open_sessions(), 1U);
  EXPECT_EQ(ss.peak_open_sessions(), 5U);
  const auto table = ss.finish();
  EXPECT_EQ(table.size(), 6U);
}

TEST(StreamingSessionizer, ResetPeakReportsPerWindowMaxima) {
  SessionizerOptions opts;
  opts.threshold_seconds = 10.0;
  StreamingSessionizer ss(opts);
  for (std::uint32_t c = 0; c < 4; ++c) ss.add(req(0.0, c));
  EXPECT_EQ(ss.peak_open_sessions(), 4U);

  // New window while all four are (lazily) expired: the first event evicts
  // them, so the carried-over-but-dead sessions never inflate the peak.
  ss.reset_peak();
  EXPECT_EQ(ss.peak_open_sessions(), 0U);
  ss.add(req(100.0, 9));
  EXPECT_EQ(ss.peak_open_sessions(), 1U);

  // New window while one session is genuinely still open: extending it
  // counts it toward the restarted peak even though no insert happens.
  ss.reset_peak();
  ss.add(req(105.0, 9));
  EXPECT_EQ(ss.peak_open_sessions(), 1U);
  (void)ss.finish();
}

// Regression: IngestStats.peak_open_sessions used to record the stream-wide
// *cumulative* high-water mark after each file; a quiet second file far in
// the future inherited the first file's peak.
TEST_F(StreamingIngestTest, PeakOpenSessionsIsPerFile) {
  // File A: five clients interleaved (peak 5). File B: one client, more
  // than a session threshold later (peak 1).
  std::vector<std::string> a_lines, b_lines;
  for (int burst = 0; burst < 3; ++burst)
    for (int c = 0; c < 5; ++c) {
      LogEntry e;
      e.timestamp = 1073865600.0 + burst * 60.0 + c;
      e.client = "10.0.0." + std::to_string(c);
      e.method = "GET";
      e.path = "/a";
      e.protocol = "HTTP/1.0";
      e.status = 200;
      e.bytes = 100;
      a_lines.push_back(to_clf_line(e));
    }
  for (int i = 0; i < 4; ++i) {
    LogEntry e;
    e.timestamp = 1073865600.0 + 10000.0 + i * 10.0;  // > 1800 s later
    e.client = "10.0.1.1";
    e.method = "GET";
    e.path = "/b";
    e.protocol = "HTTP/1.0";
    e.status = 200;
    e.bytes = 100;
    b_lines.push_back(to_clf_line(e));
  }
  const std::string file_a = write_file("peak_a", a_lines);
  const std::string file_b = write_file("peak_b", b_lines);

  const std::vector<std::string> paths = {file_a, file_b};
  StreamIngestReport report;
  auto ds = Dataset::from_clf_stream("peak", paths, {}, &report);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(report.files.size(), 2U);
  EXPECT_EQ(report.files[0].peak_open_sessions, 5U);
  EXPECT_EQ(report.files[1].peak_open_sessions, 1U);  // was 5 before the fix
  EXPECT_EQ(report.peak_open_sessions, 5U);  // stream-wide max unchanged
}

// IngestStats::summary(): the open-failed path must not format-and-discard,
// and the success path must name the file it summarizes.
TEST(IngestStatsSummary, IncludesPathAndEarlyReturnsOnOpenFailure) {
  IngestStats ok_stats;
  ok_stats.path = "/var/log/server/access.log";
  ok_stats.bytes = 1024;
  ok_stats.lines = 10;
  ok_stats.parsed = 9;
  ok_stats.malformed = 1;
  const std::string s = ok_stats.summary();
  EXPECT_NE(s.find("/var/log/server/access.log: "), std::string::npos);
  EXPECT_NE(s.find("parsed=9"), std::string::npos);

  IngestStats no_path;  // pathless stats still format cleanly
  no_path.parsed = 3;
  EXPECT_EQ(no_path.summary().find(": "), std::string::npos);

  IngestStats failed;
  failed.path = "/gone.log";
  failed.open_failed = true;
  EXPECT_EQ(failed.summary(), "/gone.log: OPEN FAILED");
}

// An on_record callback that throws mid-drain must not abandon queued parse
// tasks: the reader's scope guard drains (discarding results) so the
// executor is quiescent and reusable after the exception escapes.
TEST_F(StreamingIngestTest, ThrowingCallbackLeavesExecutorReusable) {
  const std::string path = write_synthetic("throwing", 4 * 3600.0, 0.1);
  support::Executor ex(8);
  ClfReaderOptions opts;
  opts.chunk_bytes = 4096;  // many chunks => several futures in flight
  opts.executor = &ex;

  std::size_t clean_count = 0;
  auto clean = read_clf_records(path, opts,
                                [&](const ClfRecord&) { ++clean_count; });
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(clean.value().chunks, 4U);

  struct Boom : std::runtime_error {
    Boom() : std::runtime_error("boom") {}
  };
  std::size_t seen = 0;
  EXPECT_THROW(
      {
        auto r = read_clf_records(path, opts, [&](const ClfRecord&) {
          if (++seen == 10) throw Boom();
        });
        (void)r;
      },
      Boom);
  EXPECT_EQ(seen, 10U);

  // The pool must still work and deliver identical results afterwards.
  std::size_t after_count = 0;
  auto after = read_clf_records(path, opts,
                                [&](const ClfRecord&) { ++after_count; });
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after_count, clean_count);
  EXPECT_EQ(after.value().parsed, clean.value().parsed);
}

}  // namespace
}  // namespace fullweb::weblog
