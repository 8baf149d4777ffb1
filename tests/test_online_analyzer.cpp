// OnlineAnalyzer contract tests: streaming-vs-batch equivalence (exact when
// the window covers the whole input, tolerance-bounded when the sketch
// samples), snapshot byte-identity across thread counts / chunk sizes /
// file splits, window sliding, and analyzer reuse across files.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "lrd/variance_time.h"
#include "online/analyzer.h"
#include "stats/kpss.h"
#include "support/executor.h"
#include "support/rng.h"
#include "synth/generator.h"
#include "tail/hill.h"
#include "tail/llcd.h"
#include "weblog/clf.h"
#include "weblog/dataset.h"

namespace fullweb::online {
namespace {

struct Event {
  double time;
  double bytes;
};

/// A synthetic ClarkNet-profile request stream (time + transfer size),
/// delivered in arrival order like a live log.
std::vector<Event> synthetic_events(double duration, double scale,
                                    std::uint64_t seed) {
  support::Rng rng(seed);
  synth::GeneratorOptions gen;
  gen.duration = duration;
  gen.scale = scale;
  auto workload =
      synth::generate_workload(synth::ServerProfile::clarknet(), gen, rng);
  EXPECT_TRUE(workload.ok());
  support::Rng rng2(seed + 1);
  std::vector<Event> events;
  for (const auto& e : synth::to_log_entries(workload.value(), rng2))
    events.push_back({e.timestamp, static_cast<double>(e.bytes)});
  return events;
}

/// Window covering the whole stream and a sketch big enough to retain
/// every sample: the configuration under which the analyzer must reproduce
/// the batch pipeline exactly.
OnlineOptions whole_input_options(std::size_t bins_needed, std::size_t n) {
  OnlineOptions o;
  o.block_bins = 256;
  o.window_blocks = (bins_needed / o.block_bins) + 2;  // window >= stream
  o.tail_top_k = n + 1;          // exact top set covers the whole sample
  o.tail_body_capacity = n + 1;  // nothing ever dropped
  o.tail_subsample = n + 1;      // LLCD sees the exact sample
  return o;
}

TEST(OnlineAnalyzer, WholeInputWindowMatchesBatchExactly) {
  const auto events = synthetic_events(3600.0, 0.25, 42);
  ASSERT_GT(events.size(), 1000u);

  OnlineAnalyzer an(whole_input_options(3700, events.size()),
                    support::Rng(7));
  std::vector<double> bytes;
  for (const auto& e : events) {
    an.add(e.time, e.bytes);
    bytes.push_back(e.bytes);
  }

  // The materialized window must BE the batch per-second series.
  std::vector<weblog::Request> reqs;
  for (const auto& e : events)
    reqs.push_back(weblog::Request{e.time, 0, 200,
                                   static_cast<std::uint64_t>(e.bytes)});
  auto ds = weblog::Dataset::from_requests("syn", reqs);
  ASSERT_TRUE(ds.ok());
  const std::vector<double> batch_series = ds.value().requests_per_second();
  const std::vector<double> window = an.window_counts();
  ASSERT_EQ(window.size(), batch_series.size());
  for (std::size_t i = 0; i < window.size(); ++i)
    ASSERT_EQ(window[i], batch_series[i]) << "bin " << i;

  const OnlineSnapshot snap = an.snapshot();

  // KPSS and variance-time: same kernel on the same series => exact.
  const auto kpss = stats::kpss_test(batch_series);
  ASSERT_TRUE(kpss.ok());
  ASSERT_TRUE(snap.kpss.value.has_value());
  EXPECT_EQ(snap.kpss.value->statistic, kpss.value().statistic);
  EXPECT_EQ(snap.kpss.value->lag, kpss.value().lag);
  EXPECT_EQ(snap.kpss.value->p_value, kpss.value().p_value);

  const auto vt = lrd::variance_time_hurst(batch_series);
  ASSERT_TRUE(vt.ok());
  ASSERT_TRUE(snap.hurst_vt.value.has_value());
  EXPECT_EQ(snap.hurst_vt.value->h, vt.value().h);

  // Hill: the sketch retains every order statistic the plot reads.
  const auto hill = tail::hill_estimate(bytes);
  ASSERT_TRUE(hill.ok());
  ASSERT_TRUE(snap.hill.value.has_value());
  EXPECT_EQ(snap.hill.value->alpha, hill.value().alpha);
  EXPECT_EQ(snap.hill.value->k_low, hill.value().k_low);
  EXPECT_EQ(snap.hill.value->k_high, hill.value().k_high);
  EXPECT_EQ(snap.hill.value->stabilized, hill.value().stabilized);

  // LLCD: nothing dropped and the subsample cap exceeds n, so the fitter
  // sees the exact positive sample (ascending; llcd sorts internally).
  EXPECT_EQ(an.sketch().dropped(), 0u);
  std::vector<double> positive;
  for (double b : bytes)
    if (b > 0.0) positive.push_back(b);
  const auto llcd = tail::llcd_fit(positive);
  ASSERT_TRUE(llcd.ok());
  ASSERT_TRUE(snap.llcd.value.has_value());
  EXPECT_EQ(snap.llcd.value->alpha, llcd.value().alpha);
  EXPECT_EQ(snap.llcd.value->theta, llcd.value().theta);
}

TEST(OnlineAnalyzer, SampledTailEstimatesTrackBatchWithinTolerance) {
  // Bounded sketch on a long heavy-tailed stream: estimates come from the
  // retained top-k prefix (Hill, exact as far as the truncated plot goes)
  // and an alias subsample (LLCD). Documented tolerance: Hill within 10%,
  // LLCD within 20% of the batch value on this workload
  // (EXPERIMENTS.md "Online layer" table).
  support::Rng vrng(77);
  const std::size_t n = 40000;
  std::vector<double> bytes;
  std::vector<Event> events;
  bytes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = 100.0 * std::pow(vrng.uniform_pos(), -1.0 / 1.3);
    bytes.push_back(v);
    events.push_back({static_cast<double>(i) * 0.1, v});
  }

  OnlineOptions o;
  o.tail_top_k = 512;
  o.tail_body_capacity = 1024;
  o.tail_subsample = 4096;
  OnlineAnalyzer an(o, support::Rng(3));
  for (const auto& e : events) an.add(e.time, e.bytes);
  EXPECT_GT(an.sketch().dropped(), 0u);

  const OnlineSnapshot snap = an.snapshot();
  const auto hill = tail::hill_estimate(bytes);
  ASSERT_TRUE(hill.ok());
  ASSERT_TRUE(snap.hill.value.has_value());
  EXPECT_NEAR(snap.hill.value->alpha / hill.value().alpha, 1.0, 0.10);

  const auto llcd = tail::llcd_fit(bytes);
  ASSERT_TRUE(llcd.ok());
  ASSERT_TRUE(snap.llcd.value.has_value());
  EXPECT_NEAR(snap.llcd.value->alpha / llcd.value().alpha, 1.0, 0.20);
}

class OnlineAnalyzerFiles : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : files_) std::remove(p.c_str());
  }

  std::string write_file(const std::string& name,
                         const std::vector<std::string>& lines) {
    // The pid keeps concurrent runs of this binary (the plain, TSan and
    // ASan ctest entries) from deleting each other's files.
    const std::string path = "/tmp/fullweb_online_" + name + "_" +
                             std::to_string(::getpid()) + ".log";
    std::ofstream os(path, std::ios::binary);
    for (const auto& l : lines) os << l << "\n";
    files_.push_back(path);
    return path;
  }

  std::vector<std::string> synthetic_lines(double duration, double scale) {
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
      lines.push_back(weblog::to_clf_line(e));
    return lines;
  }

  std::vector<std::string> files_;
};

TEST_F(OnlineAnalyzerFiles, SnapshotByteIdenticalAcrossThreadsAndChunks) {
  const auto lines = synthetic_lines(3600.0, 0.2);
  ASSERT_GT(lines.size(), 500u);
  const std::string path = write_file("threads", lines);

  OnlineOptions o;
  o.window_blocks = 4;
  std::string reference;
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (std::size_t chunk : {std::size_t{4096}, std::size_t{1} << 20}) {
      support::Executor ex(threads);
      weblog::ClfReaderOptions reader;
      reader.executor = &ex;
      reader.chunk_bytes = chunk;
      OnlineAnalyzer an(o, support::Rng(11));
      ASSERT_TRUE(an.feed(path, reader).ok());
      const std::string json = an.snapshot_json();
      if (reference.empty())
        reference = json;
      else
        EXPECT_EQ(json, reference)
            << "threads=" << threads << " chunk=" << chunk;
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST_F(OnlineAnalyzerFiles, FileSplitAtEveryBoundaryYieldsIdenticalSnapshot) {
  // One analyzer fed the corpus as a single file vs split into two files at
  // every line boundary: the continuing-stream contract (no state reset
  // between feed() calls) plus absolute-bin keying make every snapshot
  // byte-identical. This is both the chunking-invariance gate and the
  // regression test for analyzer reuse across files.
  auto lines = synthetic_lines(3600.0, 0.25);
  ASSERT_GT(lines.size(), 40u);
  if (lines.size() > 120) lines.resize(120);  // keep the O(n^2) sweep cheap

  OnlineOptions o;
  o.window_blocks = 2;
  o.block_bins = 64;
  const std::string whole = write_file("whole", lines);
  OnlineAnalyzer ref(o, support::Rng(5));
  ASSERT_TRUE(ref.feed(whole).ok());
  const std::string expected = ref.snapshot_json();

  for (std::size_t cut = 0; cut <= lines.size(); cut += 7) {
    const auto mid = lines.begin() + static_cast<std::ptrdiff_t>(cut);
    const std::vector<std::string> head(lines.begin(), mid);
    const std::vector<std::string> tail_lines(mid, lines.end());
    const std::string f1 = write_file("cut_a", head);
    const std::string f2 = write_file("cut_b", tail_lines);
    OnlineAnalyzer an(o, support::Rng(5));
    ASSERT_TRUE(an.feed(f1).ok());
    ASSERT_TRUE(an.feed(f2).ok());
    EXPECT_EQ(an.snapshot_json(), expected) << "cut=" << cut;
  }
}

TEST(OnlineAnalyzer, WindowSlidesAndOldBinsLeave) {
  OnlineOptions o;
  o.block_bins = 8;
  o.window_blocks = 2;
  OnlineAnalyzer an(o, support::Rng(1));
  // 100 seconds of one request per second: window is the last <= 16 bins.
  for (int t = 0; t < 100; ++t) an.add(static_cast<double>(t) + 0.5, 100.0);
  const auto win = an.window_counts();
  EXPECT_LE(win.size(), 16u);
  EXPECT_GE(win.size(), 9u);  // at least one full block plus the partial one
  for (double c : win) EXPECT_EQ(c, 1.0);

  const OnlineSnapshot snap = an.snapshot();
  EXPECT_EQ(snap.records, 100u);       // counters are whole-stream
  EXPECT_EQ(snap.tail_count, 100u);    // sketch is whole-stream
  EXPECT_EQ(snap.window_last_bin, 99);
}

TEST(OnlineAnalyzer, LateRecordsBeforeWindowAreCountedNotBinned) {
  OnlineOptions o;
  o.block_bins = 8;
  o.window_blocks = 2;
  OnlineAnalyzer an(o, support::Rng(1));
  for (int t = 0; t < 100; ++t) an.add(static_cast<double>(t), 50.0);
  an.add(3.0, 50.0);  // far before the current window
  const OnlineSnapshot snap = an.snapshot();
  EXPECT_EQ(snap.late_dropped, 1u);
  EXPECT_TRUE(snap.saw_unsorted);
  EXPECT_EQ(snap.records, 100u);
  EXPECT_EQ(snap.tail_count, 101u);  // the sketch still accepted its bytes
}

TEST(OnlineAnalyzer, RepeatedSnapshotsAreIdempotent) {
  const auto events = synthetic_events(3600.0, 0.1, 9);
  OnlineOptions o;
  OnlineAnalyzer an(o, support::Rng(2));
  for (const auto& e : events) an.add(e.time, e.bytes);
  const std::string a = an.snapshot_json();
  const std::string b = an.snapshot_json();
  EXPECT_EQ(a, b);
  an.add(events.back().time + 1.0, 10.0);
  EXPECT_NE(an.snapshot_json(), a);  // new data must be visible
}

}  // namespace
}  // namespace fullweb::online
