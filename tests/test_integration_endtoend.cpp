// End-to-end integration: synthetic workload -> CLF text -> parser ->
// Dataset -> analyses. Exercises the exact pipeline a downstream user runs
// on real logs, and verifies the text round-trip loses nothing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/stationary.h"
#include "core/tail_analysis.h"
#include "lrd/estimator_suite.h"
#include "synth/generator.h"
#include "weblog/clf.h"
#include "weblog/dataset.h"

namespace fullweb {
namespace {

TEST(EndToEnd, ClfTextRoundTripPreservesAnalysisInputs) {
  support::Rng rng(1);
  synth::GeneratorOptions gen;
  gen.duration = 86400.0;
  gen.scale = 0.5;
  auto workload =
      synth::generate_workload(synth::ServerProfile::csee(), gen, rng);
  ASSERT_TRUE(workload.ok());

  // Emit as CLF text.
  support::Rng rng2(2);
  const auto entries = synth::to_log_entries(workload.value(), rng2);
  const std::string path = "/tmp/fullweb_endtoend_roundtrip.log";
  {
    std::ofstream log_text(path, std::ios::binary);
    for (const auto& e : entries) log_text << weblog::to_clf_line(e) << '\n';
  }

  // Ingest it back through the CLF path, and build the other dataset
  // directly; they must agree on every statistic the analyses consume.
  const std::vector<std::string> paths = {path};
  weblog::StreamIngestReport report;
  auto via_text = weblog::Dataset::from_clf_stream("text", paths, {}, &report);
  std::remove(path.c_str());
  ASSERT_TRUE(via_text.ok());
  ASSERT_EQ(report.files.size(), 1U);
  EXPECT_EQ(report.files[0].malformed, 0U);
  ASSERT_EQ(report.files[0].parsed, entries.size());
  auto direct = weblog::Dataset::from_requests(
      "direct", std::move(workload.value().requests));
  ASSERT_TRUE(direct.ok());

  EXPECT_EQ(direct.value().requests().size(), via_text.value().requests().size());
  EXPECT_EQ(direct.value().sessions().size(), via_text.value().sessions().size());
  EXPECT_EQ(direct.value().total_bytes(), via_text.value().total_bytes());
  EXPECT_DOUBLE_EQ(direct.value().t0(), via_text.value().t0());
  EXPECT_DOUBLE_EQ(direct.value().t1(), via_text.value().t1());

  const auto series_a = direct.value().requests_per_second();
  const auto series_b = via_text.value().requests_per_second();
  ASSERT_EQ(series_a.size(), series_b.size());
  for (std::size_t i = 0; i < series_a.size(); ++i)
    ASSERT_DOUBLE_EQ(series_a[i], series_b[i]) << "second " << i;

  // Session samples agree too (sessionizer ran on identical inputs).
  const auto lengths_a = direct.value().session_lengths();
  const auto lengths_b = via_text.value().session_lengths();
  ASSERT_EQ(lengths_a.size(), lengths_b.size());
}

TEST(EndToEnd, WvuDayReproducesHeadlinePhenomena) {
  // One WVU day at reduced scale: request arrivals must be non-Poisson and
  // LRD; intra-session characteristics heavy-tailed. This is the paper's
  // core claim chain on a single synthetic input.
  support::Rng rng(3);
  synth::GeneratorOptions gen;
  gen.duration = 86400.0;
  gen.scale = 0.05;
  auto ds = synth::generate_dataset(synth::ServerProfile::wvu(), gen, rng);
  ASSERT_TRUE(ds.ok());

  // LRD of the request series (use the stationarized series: one day has
  // no full diurnal cycle to remove, but the trend is handled).
  const auto series = ds.value().requests_per_second();
  core::StationaryOptions sopts;
  const auto st = core::make_stationary(series, sopts);
  ASSERT_TRUE(st.ok());
  const auto suite = lrd::hurst_suite(st.value().series);
  ASSERT_GE(suite.estimates.size(), 4U);
  const auto* whittle = suite.find(lrd::HurstMethod::kWhittle);
  ASSERT_NE(whittle, nullptr);
  EXPECT_GT(whittle->h, 0.6);

  // Heavy-tailed session length and bytes.
  support::Rng rng2(4);
  core::TailAnalysisOptions topts;
  topts.run_curvature = false;
  const auto lengths = core::analyze_tail(ds.value().session_lengths(), rng2, topts);
  ASSERT_TRUE(lengths.available);
  ASSERT_TRUE(lengths.llcd.has_value());
  EXPECT_LT(lengths.llcd->alpha, 2.6);
  const auto bytes = core::analyze_tail(ds.value().session_byte_counts(), rng2, topts);
  ASSERT_TRUE(bytes.available);
  EXPECT_TRUE(bytes.heavy_tailed());
}

}  // namespace
}  // namespace fullweb
