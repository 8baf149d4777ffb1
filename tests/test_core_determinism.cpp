// The behavior-preservation contract of the parallel pipeline: fitting the
// FULL-Web model with a serial executor and with an oversubscribed 8-thread
// pool must produce bit-identical results, because every stochastic stage
// draws from a substream pinned to its position in the analysis, not to the
// execution schedule.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "core/fullweb_model.h"
#include "support/executor.h"
#include "support/rng.h"
#include "support/timing.h"
#include "synth/generator.h"

namespace fullweb::core {
namespace {

struct Fit {
  FullWebModel model;
  std::string report;
};

Fit fit_with_threads(std::size_t threads) {
  support::Rng gen_rng(11);
  synth::GeneratorOptions gen;
  gen.duration = 86400.0;
  gen.scale = 0.35;
  auto ds = synth::generate_dataset(synth::ServerProfile::csee(), gen, gen_rng);
  EXPECT_TRUE(ds.ok());

  support::Executor ex(threads);
  support::StageTimings timings;
  FullWebOptions opts;
  opts.interval_seconds = 4 * 3600.0;
  opts.tails.curvature_replicates = 19;
  opts.arrivals.aggregation_levels = {1, 10};
  opts.executor = &ex;
  opts.timings = &timings;
  support::Rng fit_rng(11);
  auto model = fit_fullweb_model(ds.value(), fit_rng, opts);
  EXPECT_TRUE(model.ok());
  EXPECT_FALSE(timings.empty());
  return {model.value(), render_report(model.value())};
}

/// Every optional tail estimate must be present on both sides or on
/// neither, and equal when present: an estimate on one side only is a
/// divergence, not something to skip.
void expect_same_tail(const TailAnalysis& a, const TailAnalysis& b,
                      const std::string& where) {
  EXPECT_EQ(a.available, b.available) << where;
  ASSERT_EQ(a.llcd.has_value(), b.llcd.has_value()) << where << " llcd";
  if (a.llcd) {
    EXPECT_EQ(a.llcd->alpha, b.llcd->alpha) << where << " llcd";
  }
  ASSERT_EQ(a.hill.has_value(), b.hill.has_value()) << where << " hill";
  if (a.hill) {
    EXPECT_EQ(a.hill->alpha, b.hill->alpha) << where << " hill";
    EXPECT_EQ(a.hill->stabilized, b.hill->stabilized) << where << " hill";
  }
  for (const auto test : {&TailAnalysis::curvature_pareto,
                          &TailAnalysis::curvature_lognormal}) {
    const auto& ca = a.*test;
    const auto& cb = b.*test;
    ASSERT_EQ(ca.has_value(), cb.has_value()) << where << " curvature";
    if (ca) {
      EXPECT_EQ(ca->curvature, cb->curvature) << where << " curvature";
      EXPECT_EQ(ca->p_value, cb->p_value) << where << " curvature";
    }
  }
}

void expect_same_tails(const IntervalTails& a, const IntervalTails& b,
                       const std::string& where) {
  EXPECT_EQ(a.sessions, b.sessions) << where;
  expect_same_tail(a.length, b.length, where + " length");
  expect_same_tail(a.requests, b.requests, where + " requests");
  expect_same_tail(a.bytes, b.bytes, where + " bytes");
}

void expect_bit_identical(const FullWebModel& a, const FullWebModel& b) {
  // Exact comparisons on purpose: the contract is bitwise equality, not
  // numerical closeness.
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.total_sessions, b.total_sessions);
  EXPECT_EQ(a.mb_transferred, b.mb_transferred);

  const auto& ra = a.request_arrivals;
  const auto& rb = b.request_arrivals;
  ASSERT_EQ(ra.hurst_raw.estimates.size(), rb.hurst_raw.estimates.size());
  for (std::size_t i = 0; i < ra.hurst_raw.estimates.size(); ++i) {
    EXPECT_EQ(ra.hurst_raw.estimates[i].h, rb.hurst_raw.estimates[i].h) << i;
  }
  ASSERT_EQ(ra.hurst_stationary.estimates.size(),
            rb.hurst_stationary.estimates.size());
  for (std::size_t i = 0; i < ra.hurst_stationary.estimates.size(); ++i) {
    EXPECT_EQ(ra.hurst_stationary.estimates[i].h,
              rb.hurst_stationary.estimates[i].h)
        << i;
  }
  ASSERT_EQ(ra.whittle_sweep.size(), rb.whittle_sweep.size());
  ASSERT_EQ(ra.abry_veitch_sweep.size(), rb.abry_veitch_sweep.size());
  for (std::size_t i = 0; i < ra.whittle_sweep.size(); ++i) {
    EXPECT_EQ(ra.whittle_sweep[i].estimate.h, rb.whittle_sweep[i].estimate.h);
  }
  for (std::size_t i = 0; i < ra.abry_veitch_sweep.size(); ++i) {
    EXPECT_EQ(ra.abry_veitch_sweep[i].estimate.h,
              rb.abry_veitch_sweep[i].estimate.h);
  }

  ASSERT_EQ(a.request_poisson.size(), b.request_poisson.size());
  for (const auto& [load, battery] : a.request_poisson) {
    const auto it = b.request_poisson.find(load);
    ASSERT_NE(it, b.request_poisson.end());
    EXPECT_EQ(battery.available, it->second.available);
    EXPECT_EQ(battery.poisson_all(), it->second.poisson_all());
  }

  ASSERT_EQ(a.interval_tails.size(), b.interval_tails.size());
  for (const auto& [load, tails] : a.interval_tails) {
    const auto it = b.interval_tails.find(load);
    ASSERT_NE(it, b.interval_tails.end());
    expect_same_tails(tails, it->second, weblog::to_string(load));
  }
  expect_same_tails(a.week_tails, b.week_tails, "week");

  ASSERT_EQ(a.errors.has_value(), b.errors.has_value());
  if (a.errors) {
    EXPECT_EQ(a.errors->request_error_rate, b.errors->request_error_rate);
    EXPECT_EQ(a.errors->session_reliability, b.errors->session_reliability);
  }
}

TEST(FullWebDeterminism, SerialAndParallelAreBitIdentical) {
  const Fit serial = fit_with_threads(1);
  const Fit parallel = fit_with_threads(8);
  expect_bit_identical(serial.model, parallel.model);
  // The rendered report covers the printed fields at full printed precision
  // (curvature p-values are not printed; expect_bit_identical compares them).
  EXPECT_EQ(serial.report, parallel.report);
  // The fixture must exercise the optional estimates, or their presence
  // checks compare nothing.
  const auto& week = serial.model.week_tails;
  for (const TailAnalysis* t : {&week.length, &week.requests, &week.bytes}) {
    EXPECT_TRUE(t->llcd.has_value());
    EXPECT_TRUE(t->hill.has_value());
    EXPECT_TRUE(t->curvature_pareto.has_value());
    EXPECT_TRUE(t->curvature_lognormal.has_value());
  }
}

TEST(FullWebDeterminism, RepeatedParallelRunsAgree) {
  const Fit first = fit_with_threads(8);
  const Fit second = fit_with_threads(8);
  expect_bit_identical(first.model, second.model);
  EXPECT_EQ(first.report, second.report);
}

}  // namespace
}  // namespace fullweb::core
