// Degenerate-input behavior across the analysis kernels: empty, single
// point, constant, and all-nonpositive samples must produce a diagnosable
// error (support::Result) or an explicitly absent estimate — never NaN
// estimates or UB. These are the inputs real sparse logs produce (the
// paper's NASA-Pub2 "NA" cells).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "lrd/estimator_suite.h"
#include "online/analyzer.h"
#include "stats/kpss.h"
#include "support/rng.h"
#include "tail/hill.h"
#include "tail/llcd.h"
#include "weblog/sessionizer.h"

namespace {

using namespace fullweb;

const std::vector<double> kEmpty;
const std::vector<double> kOne{42.0};

TEST(EdgeInputs, HurstSuiteOnEmptyAndSingletonReportsNoEstimates) {
  for (const auto& xs : {kEmpty, kOne}) {
    const auto suite = lrd::hurst_suite(xs);
    EXPECT_TRUE(suite.estimates.empty()) << "n=" << xs.size();
    EXPECT_FALSE(suite.all_indicate_lrd());
  }
}

TEST(EdgeInputs, HurstSuiteOnConstantSeriesHasNoNanEstimates) {
  const std::vector<double> constant(4096, 3.0);
  const auto suite = lrd::hurst_suite(constant);
  // A zero-variance series has no defined H; estimators may either drop out
  // or return a finite value, but never NaN/inf.
  for (const auto& est : suite.estimates) {
    EXPECT_TRUE(std::isfinite(est.h)) << lrd::to_string(est.method);
    if (est.ci95_halfwidth) {
      EXPECT_TRUE(std::isfinite(*est.ci95_halfwidth)) << lrd::to_string(est.method);
    }
  }
}

TEST(EdgeInputs, HillPlotErrorsOnTooFewSamples) {
  EXPECT_FALSE(tail::hill_plot(kEmpty).ok());
  EXPECT_FALSE(tail::hill_plot(kOne).ok());
  EXPECT_FALSE(tail::hill_estimate(kEmpty).ok());
  EXPECT_FALSE(tail::hill_estimate(kOne).ok());
}

TEST(EdgeInputs, HillPlotErrorsWithoutPositiveSamples) {
  const std::vector<double> nonpositive(500, -1.0);
  EXPECT_FALSE(tail::hill_plot(nonpositive).ok());
  const std::vector<double> zeros(500, 0.0);
  EXPECT_FALSE(tail::hill_plot(zeros).ok());
}

TEST(EdgeInputs, HillEstimateOnConstantSampleIsADiagnosableError) {
  // log X_(i) - log X_(k+1) == 0 for a constant sample, so alpha is
  // undefined at every k. The plot flags those points NaN by documented
  // contract (see test_tail_hill TiesAtTopYieldNaNNotCrash) — never inf —
  // and the estimate, the user-visible result, must refuse cleanly.
  const std::vector<double> constant(500, 7.0);
  const auto plot = tail::hill_plot(constant);
  if (plot.ok()) {
    for (double a : plot.value().alpha) EXPECT_FALSE(std::isinf(a));
  }
  const auto est = tail::hill_estimate(constant);
  ASSERT_FALSE(est.ok());
  EXPECT_FALSE(est.error().message.empty());
}

TEST(EdgeInputs, LlcdErrorsOnDegenerateInput) {
  EXPECT_FALSE(tail::llcd_fit(kEmpty).ok());
  EXPECT_FALSE(tail::llcd_fit(kOne).ok());
  EXPECT_FALSE(tail::llcd_plot(kEmpty).ok());
  // A constant sample has one distinct CCDF point: below any sane
  // min_points. Must be the paper's "NA", not a garbage regression.
  const std::vector<double> constant(500, 7.0);
  EXPECT_FALSE(tail::llcd_fit(constant).ok());
  // All-nonpositive: no log-scale points exist at all.
  const std::vector<double> nonpositive(500, -2.0);
  EXPECT_FALSE(tail::llcd_fit(nonpositive).ok());
}

TEST(EdgeInputs, KpssErrorsBelowMinimumLength) {
  EXPECT_FALSE(stats::kpss_test(kEmpty).ok());
  EXPECT_FALSE(stats::kpss_test(kOne).ok());
  const std::vector<double> nine(9, 1.0);
  EXPECT_FALSE(stats::kpss_test(nine).ok());
}

TEST(EdgeInputs, KpssOnConstantSeriesIsFiniteOrError) {
  // Zero residual variance makes eta 0/0; either refuse or report a finite
  // statistic with a decidable verdict.
  const std::vector<double> constant(256, 5.0);
  for (auto null : {stats::KpssNull::kLevel, stats::KpssNull::kTrend}) {
    const auto r = stats::kpss_test(constant, null);
    if (r.ok()) {
      EXPECT_TRUE(std::isfinite(r.value().statistic));
      EXPECT_TRUE(std::isfinite(r.value().p_value));
    }
  }
}

TEST(EdgeInputs, ErrorsNameTheProblem) {
  // The Result errors must be diagnosable, not empty strings.
  const auto hill = tail::hill_estimate(kEmpty);
  ASSERT_FALSE(hill.ok());
  EXPECT_FALSE(hill.error().message.empty());
  const auto llcd = tail::llcd_fit(kOne);
  ASSERT_FALSE(llcd.ok());
  EXPECT_FALSE(llcd.error().message.empty());
  const auto kpss = stats::kpss_test(kEmpty);
  ASSERT_FALSE(kpss.ok());
  EXPECT_FALSE(kpss.error().message.empty());
}

// ---------------------------------------------------------------------------
// Online layer: the same degenerate inputs arriving as a live stream must
// surface as flags and per-estimator error strings, never UB or NaN-filled
// snapshots.

TEST(EdgeInputsOnline, EmptyStreamSnapshotsCleanly) {
  online::OnlineAnalyzer an({}, fullweb::support::Rng(1));
  const online::OnlineSnapshot s = an.snapshot();
  EXPECT_EQ(s.records, 0u);
  EXPECT_EQ(s.window_bins, 0u);
  EXPECT_FALSE(s.kpss.value.has_value());
  EXPECT_FALSE(s.kpss.error.empty());
  EXPECT_FALSE(s.hurst_vt.value.has_value());
  EXPECT_FALSE(s.frs.value.has_value());
  EXPECT_FALSE(s.hill.value.has_value());
  EXPECT_FALSE(s.llcd.value.has_value());
  EXPECT_FALSE(an.snapshot_json().empty());  // valid JSON either way
}

TEST(EdgeInputsOnline, SingleRecordReportsErrorsNotGarbage) {
  online::OnlineAnalyzer an({}, fullweb::support::Rng(1));
  an.add(1000.5, 4096.0);
  const online::OnlineSnapshot s = an.snapshot();
  EXPECT_EQ(s.records, 1u);
  EXPECT_EQ(s.window_bins, 1u);
  EXPECT_EQ(s.tail_count, 1u);
  EXPECT_FALSE(s.kpss.value.has_value());   // one bin: below KPSS minimum
  EXPECT_FALSE(s.hurst_vt.value.has_value());
  EXPECT_FALSE(s.hill.value.has_value());   // one sample: below Hill minimum
  EXPECT_EQ(s.p50, 4096.0);                 // quantiles of one value exist
}

TEST(EdgeInputsOnline, ConstantInterarrivalsAndDuplicateTimestamps) {
  online::OnlineAnalyzer an({}, fullweb::support::Rng(1));
  // 600 arrivals at exactly 1/s, then 50 duplicates of the same second.
  for (int t = 0; t < 600; ++t) an.add(static_cast<double>(t), 100.0);
  for (int i = 0; i < 50; ++i) an.add(599.0, 100.0);
  const online::OnlineSnapshot s = an.snapshot();
  EXPECT_EQ(s.records, 650u);
  EXPECT_FALSE(s.saw_unsorted);  // equal timestamps are in order
  // A constant count series has zero variance: estimators must refuse or
  // stay finite, never NaN. (The duplicate burst makes the last bin 51.)
  if (s.hurst_vt.value) {
    EXPECT_TRUE(std::isfinite(s.hurst_vt.value->h));
  }
  if (s.frs.value) {
    EXPECT_TRUE(std::isfinite(s.frs.value->h));
  }
  if (s.kpss.value) {
    EXPECT_TRUE(std::isfinite(s.kpss.value->statistic));
  }
  // Constant transfer sizes: Hill is degenerate by documented contract.
  EXPECT_FALSE(s.hill.value.has_value());
}

TEST(EdgeInputsOnline, WindowLargerThanStream) {
  online::OnlineOptions o;
  o.block_bins = 1 << 12;
  o.window_blocks = 1 << 10;  // window of 4M bins, stream of 32
  online::OnlineAnalyzer an(o, fullweb::support::Rng(1));
  for (int t = 0; t < 32; ++t) an.add(static_cast<double>(t), 100.0 + t);
  const online::OnlineSnapshot s = an.snapshot();
  // The window starts at the first occupied bin, not at block alignment:
  // no phantom leading zeros.
  EXPECT_EQ(s.window_bins, 32u);
  EXPECT_EQ(s.counts.mean, 1.0);
}

TEST(EdgeInputsOnline, NanAndInfiniteTimestampsAreCountedNotBinned) {
  online::OnlineAnalyzer an({}, fullweb::support::Rng(1));
  an.add(std::numeric_limits<double>::quiet_NaN(), 100.0);
  for (int t = 0; t < 20; ++t) an.add(static_cast<double>(t), 200.0);
  an.add(std::numeric_limits<double>::infinity(), 300.0);
  an.add(-std::numeric_limits<double>::infinity(), 400.0);
  const online::OnlineSnapshot s = an.snapshot();
  EXPECT_EQ(s.invalid_time, 3u);
  EXPECT_EQ(s.records, 20u);
  EXPECT_EQ(s.tail_count, 23u);  // bytes of bad-time records still count
  EXPECT_EQ(s.window_bins, 20u);
  EXPECT_FALSE(an.snapshot_json().empty());
}

TEST(EdgeInputsOnline, NanTimestampRaisesStreamingSessionizerUnsortedFlag) {
  // Regression for the latent mirror of the PR 7 peak bug: NaN fails every
  // '<' comparison, so the old `r.time < last_time_` check silently let a
  // NaN-timestamp stream claim it was sorted while idle eviction was
  // disabled. The negated comparison must flag it.
  weblog::StreamingSessionizer sz;
  sz.add(weblog::Request{10.0, 0, 200, 100});
  sz.add(weblog::Request{std::numeric_limits<double>::quiet_NaN(), 1, 200, 100});
  EXPECT_TRUE(sz.saw_unsorted());
  (void)sz.finish();
  EXPECT_FALSE(sz.saw_unsorted());  // finish() resets all state
}

}  // namespace
