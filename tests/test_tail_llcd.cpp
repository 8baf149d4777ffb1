#include "tail/llcd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/distributions.h"
#include "support/rng.h"

namespace fullweb::tail {
namespace {

std::vector<double> pareto_sample(double alpha, double k, std::size_t n,
                                  std::uint64_t seed) {
  support::Rng rng(seed);
  const stats::Pareto p(alpha, k);
  std::vector<double> xs(n);
  for (auto& x : xs) x = p.sample(rng);
  return xs;
}

TEST(LlcdPlot, PointsAreLogLogCcdf) {
  const std::vector<double> xs = {1, 10, 100, 1000};
  const auto plot = llcd_plot(xs);
  ASSERT_TRUE(plot.ok());
  // Last point (CCDF = 0) dropped: 3 points remain.
  ASSERT_EQ(plot.value().log10_x.size(), 3U);
  EXPECT_DOUBLE_EQ(plot.value().log10_x[0], 0.0);
  EXPECT_NEAR(plot.value().log10_ccdf[0], std::log10(0.75), 1e-12);
  EXPECT_NEAR(plot.value().log10_ccdf[2], std::log10(0.25), 1e-12);
}

TEST(LlcdPlot, SkipsNonPositiveValues) {
  const std::vector<double> xs = {-5, 0, 1, 2, 3};
  const auto plot = llcd_plot(xs);
  ASSERT_TRUE(plot.ok());
  EXPECT_EQ(plot.value().log10_x.size(), 2U);  // 1 and 2 (3 is the last)
}

TEST(LlcdPlot, LogXIsAscending) {
  // llcd_curvature reads its cut quantile straight from log10_x, so the
  // plot must emit it in ascending order whatever the input order: here
  // integer ties, zeros, negatives and neighbouring doubles, unsorted.
  auto xs = pareto_sample(1.2, 1.0, 2000, 17);
  for (std::size_t i = 0; i < xs.size(); i += 2) xs[i] = std::ceil(xs[i]);
  for (std::size_t i = 0; i < 50; ++i) {
    xs.push_back(0.0);
    xs.push_back(-static_cast<double>(i));
    xs.push_back(std::nextafter(1.0 + static_cast<double>(i), 0.0));
    xs.push_back(1.0 + static_cast<double>(i));
  }
  const auto plot = llcd_plot(xs);
  ASSERT_TRUE(plot.ok());
  const auto& lx = plot.value().log10_x;
  ASSERT_GT(lx.size(), 100U);
  for (std::size_t i = 1; i < lx.size(); ++i)
    ASSERT_LE(lx[i - 1], lx[i]) << "i=" << i;
}

TEST(LlcdPlot, ErrorsOnDegenerateInput) {
  EXPECT_FALSE(llcd_plot(std::vector<double>{}).ok());
  EXPECT_FALSE(llcd_plot(std::vector<double>{1.0}).ok());
  EXPECT_FALSE(llcd_plot(std::vector<double>{-1.0, -2.0, 0.0}).ok());
}

class LlcdRecoversAlpha : public ::testing::TestWithParam<double> {};

TEST_P(LlcdRecoversAlpha, OnPureParetoSample) {
  const double alpha = GetParam();
  const auto xs =
      pareto_sample(alpha, 1.0, 30000, 50 + static_cast<std::uint64_t>(alpha * 10));
  const auto fit = llcd_fit(xs);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().alpha, alpha, 0.15 * alpha);
  EXPECT_GT(fit.value().r_squared, 0.97);
}

INSTANTIATE_TEST_SUITE_P(Alphas, LlcdRecoversAlpha,
                         ::testing::Values(0.8, 1.0, 1.5, 2.0, 2.5));

TEST(LlcdFit, ExplicitThetaRestrictsRange) {
  // Body: uniform junk below 10; tail: Pareto(1.5) above 10.
  support::Rng rng(61);
  std::vector<double> xs;
  const stats::Pareto tail(1.5, 10.0);
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.uniform(0.1, 10.0));
  for (int i = 0; i < 5000; ++i) xs.push_back(tail.sample(rng));

  LlcdOptions opts;
  opts.theta = 20.0;  // inside the Pareto region
  const auto fit = llcd_fit(xs, opts);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().alpha, 1.5, 0.2);
  EXPECT_DOUBLE_EQ(fit.value().theta, 20.0);
}

TEST(LlcdFit, ExplicitThetaBelowTheSampleKeepsEveryPoint) {
  // Non-positive samples never enter the plot, but an explicit theta counts
  // every raw sample at or above it: all 1000 positives at theta = 0.5, and
  // the zeros too at theta = 0 (log10 0 = -inf admits every plot point).
  auto xs = pareto_sample(1.5, 1.0, 1000, 63);
  for (int i = 0; i < 5; ++i) {
    xs.push_back(0.0);
    xs.push_back(-1.0 - i);
  }
  const auto plot = llcd_plot(xs);
  ASSERT_TRUE(plot.ok());
  for (const double theta : {0.5, 0.0}) {
    LlcdOptions opts;
    opts.theta = theta;
    const auto fit = llcd_fit(xs, opts);
    ASSERT_TRUE(fit.ok()) << theta;
    EXPECT_EQ(fit.value().points, plot.value().log10_x.size()) << theta;
    EXPECT_EQ(fit.value().tail_samples, theta > 0.0 ? 1000u : 1005u);
  }
}

TEST(LlcdFit, NegativeExplicitThetaErrors) {
  // log10 of a negative theta is NaN, which no plot point reaches.
  const auto xs = pareto_sample(1.5, 1.0, 1000, 64);
  LlcdOptions opts;
  opts.theta = -1.0;
  const auto fit = llcd_fit(xs, opts);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.error().category, "insufficient_data");
}

TEST(LlcdFit, TailFractionSelectsQuantileCutoff) {
  const auto xs = pareto_sample(1.2, 1.0, 20000, 62);
  LlcdOptions opts;
  opts.tail_fraction = 0.10;
  const auto fit = llcd_fit(xs, opts);
  ASSERT_TRUE(fit.ok());
  // theta should sit near the 90th percentile: (0.1)^(-1/1.2) ~= 6.8.
  EXPECT_NEAR(fit.value().theta, std::pow(0.1, -1.0 / 1.2), 1.5);
  EXPECT_NEAR(fit.value().alpha, 1.2, 0.25);
}

TEST(LlcdFit, ExponentialSlopeSteepensIntoTheTail) {
  // Exponential is NOT heavy-tailed: its LLCD slope keeps steepening, so
  // the fitted "alpha" grows as the fit window moves deeper into the tail —
  // whereas a genuine Pareto slope stays put. (This is exactly why the
  // paper backs LLCD fits with the curvature test.)
  support::Rng rng(63);
  const stats::Exponential e(1.0);
  std::vector<double> exp_xs(50000);
  for (auto& x : exp_xs) x = e.sample(rng);
  const stats::Pareto p(1.5, 1.0);
  std::vector<double> par_xs(50000);
  for (auto& x : par_xs) x = p.sample(rng);

  LlcdOptions shallow;
  shallow.tail_fraction = 0.5;
  LlcdOptions deep;
  deep.tail_fraction = 0.02;

  const auto exp_shallow = llcd_fit(exp_xs, shallow);
  const auto exp_deep = llcd_fit(exp_xs, deep);
  ASSERT_TRUE(exp_shallow.ok());
  ASSERT_TRUE(exp_deep.ok());
  EXPECT_GT(exp_deep.value().alpha, 1.8 * exp_shallow.value().alpha);

  const auto par_shallow = llcd_fit(par_xs, shallow);
  const auto par_deep = llcd_fit(par_xs, deep);
  ASSERT_TRUE(par_shallow.ok());
  ASSERT_TRUE(par_deep.ok());
  EXPECT_NEAR(par_deep.value().alpha, par_shallow.value().alpha,
              0.35 * par_shallow.value().alpha);
}

TEST(LlcdFit, StandardErrorShrinksWithSampleSize) {
  const auto small = pareto_sample(1.5, 1.0, 2000, 64);
  const auto large = pareto_sample(1.5, 1.0, 100000, 65);
  const auto fs = llcd_fit(small);
  const auto fl = llcd_fit(large);
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE(fl.ok());
  EXPECT_LT(fl.value().stderr_alpha, fs.value().stderr_alpha);
}

TEST(LlcdFit, InsufficientTailPointsErrors) {
  // Many ties: only a handful of distinct values -> too few plot points.
  std::vector<double> xs(1000, 5.0);
  xs.push_back(6.0);
  xs.push_back(7.0);
  EXPECT_FALSE(llcd_fit(xs).ok());
}

TEST(LlcdFit, VarianceClassification) {
  LlcdFit fit;
  fit.alpha = 1.5;
  EXPECT_TRUE(fit.infinite_variance());
  EXPECT_FALSE(fit.infinite_mean());
  fit.alpha = 0.9;
  EXPECT_TRUE(fit.infinite_mean());
  fit.alpha = 2.5;
  EXPECT_FALSE(fit.infinite_variance());
}

TEST(LlcdFit, TailSampleCountReported) {
  const auto xs = pareto_sample(2.0, 1.0, 10000, 66);
  LlcdOptions opts;
  opts.tail_fraction = 0.25;
  const auto fit = llcd_fit(xs, opts);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(static_cast<double>(fit.value().tail_samples), 2500.0, 150.0);
}

}  // namespace
}  // namespace fullweb::tail
