// Tests for the statistical hypothesis tests: KPSS, Anderson-Darling,
// binomial meta-tests, and the digamma/trigamma special functions.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "stats/anderson_darling.h"
#include "stats/binomial.h"
#include "stats/distributions.h"
#include "stats/kpss.h"
#include "stats/special.h"
#include "support/rng.h"

namespace fullweb::stats {
namespace {

std::vector<double> white_noise(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.normal();
  return xs;
}

// ------------------------------------------------------------------ KPSS

TEST(Kpss, AcceptsWhiteNoise) {
  const auto xs = white_noise(5000, 1);
  const auto r = kpss_test(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().stationary_at_5pct());
  EXPECT_LT(r.value().statistic, 0.463);
}

TEST(Kpss, AcceptsStationaryAr1) {
  support::Rng rng(2);
  std::vector<double> xs(20000);
  xs[0] = 0;
  for (std::size_t t = 1; t < xs.size(); ++t)
    xs[t] = 0.5 * xs[t - 1] + rng.normal();
  const auto r = kpss_test(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().stationary_at_5pct());
}

TEST(Kpss, RejectsRandomWalk) {
  support::Rng rng(3);
  std::vector<double> xs(5000);
  double level = 0;
  for (auto& x : xs) {
    level += rng.normal();
    x = level;
  }
  const auto r = kpss_test(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().stationary_at_5pct());
  EXPECT_LE(r.value().p_value, 0.01 + 1e-12);
}

TEST(Kpss, RejectsLinearTrendUnderLevelNull) {
  support::Rng rng(4);
  std::vector<double> xs(5000);
  for (std::size_t t = 0; t < xs.size(); ++t)
    xs[t] = 0.01 * static_cast<double>(t) + rng.normal();
  const auto r = kpss_test(xs, KpssNull::kLevel);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().stationary_at_5pct());
}

TEST(Kpss, TrendNullAcceptsTrendStationary) {
  support::Rng rng(8);  // seed 5 is a (legitimate) 5%-level false positive
  std::vector<double> xs(5000);
  for (std::size_t t = 0; t < xs.size(); ++t)
    xs[t] = 0.01 * static_cast<double>(t) + rng.normal();
  const auto r = kpss_test(xs, KpssNull::kTrend);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().stationary_at_5pct());
  EXPECT_DOUBLE_EQ(r.value().critical_5pct, 0.146);
}

TEST(Kpss, ExplicitLagHonored) {
  const auto xs = white_noise(1000, 6);
  const auto r = kpss_test(xs, KpssNull::kLevel, 7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().lag, 7U);
}

TEST(Kpss, AutomaticLagFormula) {
  const auto xs = white_noise(1000, 7);
  const auto r = kpss_test(xs);
  ASSERT_TRUE(r.ok());
  // floor(12 * (1000/100)^0.25) = floor(21.3) = 21
  EXPECT_EQ(r.value().lag, 21U);
}

TEST(Kpss, ErrorsOnTinySeries) {
  const std::vector<double> xs = {1, 2, 3};
  EXPECT_FALSE(kpss_test(xs).ok());
}

TEST(Kpss, ErrorsOnConstantSeries) {
  const std::vector<double> xs(100, 5.0);
  EXPECT_FALSE(kpss_test(xs).ok());
}

// ---------------------------------------------------------- Anderson-Darling

TEST(AndersonDarling, AcceptsExponentialSample) {
  support::Rng rng(11);
  const Exponential e(3.0);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = e.sample(rng);
  const auto r = anderson_darling_exponential(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().exponential_at_5pct());
  EXPECT_NEAR(r.value().lambda_hat, 3.0, 0.2);
}

TEST(AndersonDarling, RejectsUniformSample) {
  support::Rng rng(12);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = rng.uniform(0.5, 1.5);
  const auto r = anderson_darling_exponential(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().exponential_at_5pct());
}

TEST(AndersonDarling, RejectsParetoSample) {
  support::Rng rng(13);
  const Pareto p(1.5, 1.0);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = p.sample(rng);
  const auto r = anderson_darling_exponential(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().exponential_at_5pct());
}

TEST(AndersonDarling, RejectsLognormalSample) {
  support::Rng rng(14);
  const Lognormal ln(0.0, 1.0);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = ln.sample(rng);
  const auto r = anderson_darling_exponential(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().exponential_at_5pct());
}

TEST(AndersonDarling, FalseRejectionRateNear5Percent) {
  // Calibration check of the 1.341 critical value.
  int rejections = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    support::Rng rng(1000 + t);
    const Exponential e(1.0);
    std::vector<double> xs(200);
    for (auto& x : xs) x = e.sample(rng);
    const auto r = anderson_darling_exponential(xs);
    ASSERT_TRUE(r.ok());
    if (!r.value().exponential_at_5pct()) ++rejections;
  }
  const double rate = static_cast<double>(rejections) / trials;
  EXPECT_GT(rate, 0.01);
  EXPECT_LT(rate, 0.11);
}

TEST(AndersonDarling, ErrorsOnTinyOrInvalidSamples) {
  EXPECT_FALSE(anderson_darling_exponential(std::vector<double>{1, 2}).ok());
  EXPECT_FALSE(
      anderson_darling_exponential(std::vector<double>{1, 2, -1, 3, 4}).ok());
  EXPECT_FALSE(
      anderson_darling_exponential(std::vector<double>{0, 0, 0, 0, 0}).ok());
}

TEST(AndersonDarling, CriticalValueTable) {
  EXPECT_DOUBLE_EQ(ad_exponential_critical(0.05), 1.341);
  EXPECT_DOUBLE_EQ(ad_exponential_critical(0.01), 1.957);
  EXPECT_THROW((void)ad_exponential_critical(0.2), std::invalid_argument);
}

// --------------------------------------------------------------- Binomial

TEST(Binomial, PmfKnownValues) {
  EXPECT_NEAR(binomial_pmf(4, 0.95, 4), 0.81450625, 1e-9);
  EXPECT_NEAR(binomial_pmf(4, 0.95, 3), 0.171475, 1e-6);
  EXPECT_NEAR(binomial_pmf(4, 0.95, 2), 0.0135375, 1e-7);
  EXPECT_NEAR(binomial_pmf(4, 0.5, 2), 0.375, 1e-12);
}

TEST(Binomial, PmfSumsToOne) {
  double total = 0;
  for (std::size_t k = 0; k <= 24; ++k) total += binomial_pmf(24, 0.95, k);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Binomial, CdfMonotone) {
  double prev = 0;
  for (std::size_t k = 0; k <= 10; ++k) {
    const double c = binomial_cdf(10, 0.3, k);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(binomial_cdf(10, 0.3, 10), 1.0);
}

TEST(Binomial, EdgeProbabilities) {
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 0.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 1.0, 5), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 0.5, 6), 0.0);
}

TEST(CountTest, PaperExampleFourIntervals) {
  // With 4 intervals at 95% pass rate: s = 4 or 3 do not reject; s <= 2 does.
  EXPECT_FALSE(binomial_count_test(4, 4).rejected);
  EXPECT_FALSE(binomial_count_test(4, 3).rejected);
  EXPECT_TRUE(binomial_count_test(4, 2).rejected);
  EXPECT_TRUE(binomial_count_test(4, 0).rejected);
}

TEST(CountTest, TwentyFourIntervals) {
  // 10-minute split of a 4-hour window: 24 intervals.
  EXPECT_FALSE(binomial_count_test(24, 24).rejected);
  EXPECT_FALSE(binomial_count_test(24, 22).rejected);
  EXPECT_TRUE(binomial_count_test(24, 19).rejected);
}

TEST(CountTest, EmptyIsNoVerdict) {
  const auto t = binomial_count_test(0, 0);
  EXPECT_FALSE(t.rejected);
}

TEST(SignTest, BalancedNotSignificant) {
  const auto t = sign_test(4, 2);
  EXPECT_FALSE(t.significant_positive);
  EXPECT_FALSE(t.significant_negative);
}

TEST(SignTest, ExtremeCountsSignificantWhenNLargeEnough) {
  // With n = 4, P(X = 4 | B(4, .5)) = 0.0625 > 0.025: not significant.
  EXPECT_FALSE(sign_test(4, 4).significant_positive);
  // With n = 8, P(X = 8) = 0.0039 < 0.025: significant.
  const auto t = sign_test(8, 8);
  EXPECT_TRUE(t.significant_positive);
  EXPECT_FALSE(t.significant_negative);
  const auto tneg = sign_test(8, 0);
  EXPECT_TRUE(tneg.significant_negative);
}

// ---------------------------------------------------------------- Special

TEST(Digamma, KnownValues) {
  constexpr double kEulerGamma = 0.5772156649015329;
  EXPECT_NEAR(digamma(1.0), -kEulerGamma, 1e-10);
  EXPECT_NEAR(digamma(2.0), 1.0 - kEulerGamma, 1e-10);
  EXPECT_NEAR(digamma(0.5), -kEulerGamma - 2.0 * std::log(2.0), 1e-10);
  EXPECT_NEAR(digamma(10.0), 2.251752589066721, 1e-10);
}

TEST(Digamma, RecurrenceHolds) {
  for (double x : {0.3, 1.7, 4.2, 25.0})
    EXPECT_NEAR(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-10);
}

TEST(Trigamma, KnownValues) {
  EXPECT_NEAR(trigamma(1.0), std::numbers::pi * std::numbers::pi / 6.0, 1e-10);
  EXPECT_NEAR(trigamma(2.0), std::numbers::pi * std::numbers::pi / 6.0 - 1.0,
              1e-10);
}

TEST(Trigamma, RecurrenceHolds) {
  for (double x : {0.4, 1.3, 6.6, 40.0})
    EXPECT_NEAR(trigamma(x + 1.0), trigamma(x) - 1.0 / (x * x), 1e-10);
}

TEST(Special, RejectNonPositive) {
  EXPECT_THROW((void)digamma(0.0), std::invalid_argument);
  EXPECT_THROW((void)trigamma(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace fullweb::stats
