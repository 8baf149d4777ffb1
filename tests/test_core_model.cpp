// Tests for the tail-analysis cells, arrival analysis, and the assembled
// FULL-Web model on a small synthetic day.
#include <gtest/gtest.h>

#include <vector>

#include "core/arrival_analysis.h"
#include "core/fullweb_model.h"
#include "core/tail_analysis.h"
#include "stats/distributions.h"
#include "support/rng.h"
#include "synth/generator.h"
#include "timeseries/fgn.h"

namespace fullweb::core {
namespace {

std::vector<double> pareto_sample(double alpha, std::size_t n,
                                  std::uint64_t seed) {
  support::Rng rng(seed);
  const stats::Pareto p(alpha, 1.0);
  std::vector<double> xs(n);
  for (auto& x : xs) x = p.sample(rng);
  return xs;
}

TEST(TailAnalysis, HeavySampleProducesFullCells) {
  const auto xs = pareto_sample(1.5, 5000, 1);
  support::Rng rng(2);
  TailAnalysisOptions opts;
  opts.curvature_replicates = 49;
  const auto t = analyze_tail(xs, rng, opts);
  ASSERT_TRUE(t.available);
  ASSERT_TRUE(t.llcd.has_value());
  EXPECT_NEAR(t.llcd->alpha, 1.5, 0.35);
  ASSERT_TRUE(t.hill.has_value());
  EXPECT_TRUE(t.heavy_tailed());
  EXPECT_NE(t.hill_cell(), "NA");
  EXPECT_NE(t.llcd_cell(), "NA");
  EXPECT_NE(t.r2_cell(), "NA");
  ASSERT_TRUE(t.curvature_pareto.has_value());
  EXPECT_GT(t.curvature_pareto->p_value, 0.05);  // Pareto data: not rejected
}

TEST(TailAnalysis, TinySampleIsNA) {
  const auto xs = pareto_sample(1.5, 40, 3);
  support::Rng rng(4);
  const auto t = analyze_tail(xs, rng);
  EXPECT_FALSE(t.available);
  EXPECT_EQ(t.hill_cell(), "NA");
  EXPECT_EQ(t.llcd_cell(), "NA");
  EXPECT_EQ(t.r2_cell(), "NA");
}

TEST(TailAnalysis, NonStabilizedHillIsNS) {
  // Lognormal with strict stability -> Hill cell "NS", LLCD still reported.
  support::Rng rng_data(5);
  const stats::Lognormal ln(0.0, 2.0);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = ln.sample(rng_data);
  support::Rng rng(6);
  TailAnalysisOptions opts;
  opts.run_curvature = false;
  opts.hill.stability_cv = 0.02;
  const auto t = analyze_tail(xs, rng, opts);
  ASSERT_TRUE(t.available);
  EXPECT_EQ(t.hill_cell(), "NS");
  EXPECT_NE(t.llcd_cell(), "NA");
}

TEST(TailAnalysis, LightTailNotHeavy) {
  support::Rng rng_data(7);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rng_data.uniform(1.0, 2.0);
  support::Rng rng(8);
  TailAnalysisOptions opts;
  opts.run_curvature = false;
  const auto t = analyze_tail(xs, rng, opts);
  if (t.available && t.llcd.has_value()) {
    EXPECT_FALSE(t.heavy_tailed());
  }
}

TEST(ArrivalAnalysis, LrdSeriesDetected) {
  support::Rng rng(9);
  auto fgn = timeseries::generate_fgn(1 << 14, 0.8, 1.0, rng);
  ASSERT_TRUE(fgn.ok());
  // Shift to positive counts-like values.
  for (auto& x : fgn.value()) x = x * 2.0 + 10.0;
  ArrivalAnalysisOptions opts;
  opts.aggregation_levels = {1, 4, 16};
  const auto a = analyze_arrivals(fgn.value(), opts);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a.value().long_range_dependent());
  EXPECT_EQ(a.value().whittle_sweep.size(), 3U);
  EXPECT_EQ(a.value().abry_veitch_sweep.size(), 3U);
  for (const auto& p : a.value().whittle_sweep)
    EXPECT_NEAR(p.estimate.h, 0.8, 0.1);
}

TEST(ArrivalAnalysis, SweepSkippable) {
  support::Rng rng(10);
  auto fgn = timeseries::generate_fgn(4096, 0.7, 1.0, rng);
  ASSERT_TRUE(fgn.ok());
  ArrivalAnalysisOptions opts;
  opts.run_aggregation_sweep = false;
  const auto a = analyze_arrivals(fgn.value(), opts);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a.value().whittle_sweep.empty());
}

TEST(FullWebModel, AssemblesOnSyntheticDay) {
  support::Rng rng(11);
  synth::GeneratorOptions gen;
  gen.duration = 86400.0;
  gen.scale = 0.5;
  const auto ds = synth::generate_dataset(synth::ServerProfile::csee(), gen, rng);
  ASSERT_TRUE(ds.ok());

  FullWebOptions opts;
  opts.interval_seconds = 4 * 3600.0;
  opts.tails.curvature_replicates = 19;
  opts.arrivals.aggregation_levels = {1, 10};
  auto model = fit_fullweb_model(ds.value(), rng, opts);
  ASSERT_TRUE(model.ok());

  const FullWebModel& m = model.value();
  EXPECT_EQ(m.server, "CSEE");
  EXPECT_EQ(m.total_requests, ds.value().requests().size());
  EXPECT_EQ(m.total_sessions, ds.value().sessions().size());
  EXPECT_GT(m.mb_transferred, 0.0);

  // Three Low/Med/High tails groups plus the week row.
  EXPECT_EQ(m.interval_tails.size(), 3U);
  EXPECT_GT(m.week_tails.sessions, 1000U);
  EXPECT_TRUE(m.week_tails.length.available);
  EXPECT_TRUE(m.week_tails.requests.available);
  EXPECT_TRUE(m.week_tails.bytes.available);

  // Request-level Poisson must be rejected (bursty LRD arrivals).
  ASSERT_EQ(m.request_poisson.size(), 3U);
  for (const auto& [load, battery] : m.request_poisson) {
    if (battery.available && battery.any_ran()) {
      EXPECT_FALSE(battery.poisson_all()) << to_string(load);
    }
  }

  // The report renders without crashing and mentions the server.
  const std::string report = render_report(m);
  EXPECT_NE(report.find("CSEE"), std::string::npos);
  EXPECT_NE(report.find("Hill"), std::string::npos);
}

TEST(PoissonBattery, VerdictHelpers) {
  PoissonBattery b;
  EXPECT_FALSE(b.any_ran());
  EXPECT_FALSE(b.poisson_all());
  b.hourly_uniform.ran = true;
  b.hourly_uniform.result.independent = true;
  b.hourly_uniform.result.exponential = true;
  EXPECT_TRUE(b.any_ran());
  EXPECT_TRUE(b.poisson_all());
  b.tenmin_uniform.ran = true;
  b.tenmin_uniform.result.independent = false;
  EXPECT_FALSE(b.poisson_all());
}

}  // namespace
}  // namespace fullweb::core
