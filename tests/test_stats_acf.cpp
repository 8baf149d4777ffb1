#include "stats/acf.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/rng.h"

namespace fullweb::stats {
namespace {

/// Direct-summation reference for the biased ACF estimator.
double reference_acf(const std::vector<double>& xs, std::size_t k) {
  double m = 0;
  for (double x : xs) m += x;
  m /= static_cast<double>(xs.size());
  double c0 = 0, ck = 0;
  for (std::size_t t = 0; t < xs.size(); ++t) c0 += (xs[t] - m) * (xs[t] - m);
  for (std::size_t t = 0; t + k < xs.size(); ++t)
    ck += (xs[t] - m) * (xs[t + k] - m);
  return ck / c0;
}

TEST(Acf, LagZeroIsOne) {
  const std::vector<double> xs = {1, 3, 2, 5, 4};
  const auto r = acf(xs, 3);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
}

TEST(Acf, FftMatchesDirectSummation) {
  support::Rng rng(9);
  std::vector<double> xs(500);
  xs[0] = rng.normal();
  for (std::size_t t = 1; t < xs.size(); ++t)
    xs[t] = 0.5 * xs[t - 1] + rng.normal();
  const auto r = acf(xs, 20);
  for (std::size_t k = 0; k <= 20; ++k)
    EXPECT_NEAR(r[k], reference_acf(xs, k), 1e-10) << "lag " << k;
}

TEST(Acf, AutocorrelationAtMatchesAcf) {
  support::Rng rng(11);
  std::vector<double> xs(300);
  for (auto& x : xs) x = rng.uniform();
  const auto r = acf(xs, 10);
  for (std::size_t k = 0; k <= 10; ++k)
    EXPECT_NEAR(autocorrelation_at(xs, k), r[k], 1e-10);
}

TEST(Acf, AlternatingSeriesNegativeLagOne) {
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(i % 2 == 0 ? 1.0 : -1.0);
  const auto r = acf(xs, 2);
  EXPECT_LT(r[1], -0.9);
  EXPECT_GT(r[2], 0.9);
}

TEST(Acf, Ar1DecaysGeometrically) {
  // AR(1) with phi = 0.8: r(k) ~= 0.8^k.
  support::Rng rng(21);
  std::vector<double> xs(200000);
  xs[0] = rng.normal();
  for (std::size_t t = 1; t < xs.size(); ++t)
    xs[t] = 0.8 * xs[t - 1] + rng.normal();
  const auto r = acf(xs, 5);
  for (std::size_t k = 1; k <= 5; ++k)
    EXPECT_NEAR(r[k], std::pow(0.8, static_cast<double>(k)), 0.02) << "lag " << k;
}

TEST(Acf, WhiteNoiseNearZero) {
  support::Rng rng(31);
  std::vector<double> xs(100000);
  for (auto& x : xs) x = rng.normal();
  const auto r = acf(xs, 10);
  for (std::size_t k = 1; k <= 10; ++k) EXPECT_NEAR(r[k], 0.0, 0.02);
}

TEST(Acf, ConstantSeriesIsHandled) {
  const std::vector<double> xs(50, 7.0);
  const auto r = acf(xs, 5);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  for (std::size_t k = 1; k <= 5; ++k) EXPECT_DOUBLE_EQ(r[k], 0.0);
}

TEST(Acf, MaxLagClampedToSeriesLength) {
  const std::vector<double> xs = {1, 2, 3};
  const auto r = acf(xs, 100);
  EXPECT_EQ(r.size(), 3U);  // lags 0..2
}

TEST(Acf, EmptySeriesHasNoLags) {
  // No sample, no lag 0: an empty result, not r(0) = 1 written through an
  // empty buffer. acf_abs_sum flags it with NaN instead of a plausible 0.
  const std::vector<double> none;
  EXPECT_TRUE(acf(none, 0).empty());
  EXPECT_TRUE(acf(none, 5).empty());
  EXPECT_TRUE(std::isnan(acf_abs_sum(none, 5)));
  const std::vector<double> one = {4.0};
  EXPECT_EQ(acf(one, 5).size(), 1U);
  EXPECT_DOUBLE_EQ(acf_abs_sum(one, 5), 0.0);
}

TEST(AutocorrelationAt, OutOfRangeLagIsZero) {
  const std::vector<double> xs = {1, 2, 3};
  EXPECT_DOUBLE_EQ(autocorrelation_at(xs, 3), 0.0);
  EXPECT_DOUBLE_EQ(autocorrelation_at(xs, 10), 0.0);
}

TEST(AcfAbsSum, LrdVsSrdOrdering) {
  // A strongly positively correlated series has a much larger absolute ACF
  // sum than white noise — the non-summability diagnostic of Figure 3/5.
  support::Rng rng(41);
  std::vector<double> white(20000), ar1(20000);
  for (auto& x : white) x = rng.normal();
  ar1[0] = rng.normal();
  for (std::size_t t = 1; t < ar1.size(); ++t)
    ar1[t] = 0.95 * ar1[t - 1] + rng.normal();
  EXPECT_GT(acf_abs_sum(ar1, 100), 5.0 * acf_abs_sum(white, 100));
}

}  // namespace
}  // namespace fullweb::stats
