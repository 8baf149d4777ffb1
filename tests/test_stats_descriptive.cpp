#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace fullweb::stats {
namespace {

TEST(Mean, HandComputed) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Variance, SampleVsPopulation) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(variance_population(xs), 4.0);
  EXPECT_NEAR(variance(xs), 4.0 * 8.0 / 7.0, 1e-12);
}

TEST(Variance, DegenerateInputs) {
  const std::vector<double> one = {5.0};
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
  EXPECT_DOUBLE_EQ(variance_population(one), 0.0);
  const std::vector<double> constant = {3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(variance(constant), 0.0);
}

TEST(Variance, StableOnLargeOffset) {
  // Two-pass algorithm should not lose precision with a large mean.
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(1e9 + (i % 2 == 0 ? 1.0 : -1.0));
  EXPECT_NEAR(variance_population(xs), 1.0, 1e-6);
}

TEST(MinMax, Basic) {
  const std::vector<double> xs = {3, -1, 7, 0};
  EXPECT_DOUBLE_EQ(min_value(xs), -1);
  EXPECT_DOUBLE_EQ(max_value(xs), 7);
}

TEST(Quantile, MatchesRType7) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.1), 1.4);  // R: quantile(1:5, .1) = 1.4
}

TEST(Quantile, UnsortedInput) {
  const std::vector<double> xs = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

TEST(Quantile, ClampsOutOfRangeQ) {
  const std::vector<double> xs = {1, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(xs, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.5), 3.0);
}

TEST(Quantile, NaNQIsNaN) {
  // A NaN q has no position in the sample; it must not reach the index
  // cast (UB) or come back as some sample value.
  const std::vector<double> xs = {1, 2, 3};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(quantile_sorted(xs, nan)));
  EXPECT_TRUE(std::isnan(quantile(xs, nan)));
}

TEST(Summarize, FiveNumbers) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 9U);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_DOUBLE_EQ(s.q25, 3.0);
  EXPECT_DOUBLE_EQ(s.q75, 7.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
}

TEST(Summarize, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0U);
}

TEST(Ecdf, StrictlyIncreasingToOne) {
  const std::vector<double> xs = {3, 1, 2, 2, 5};
  const Ecdf e = ecdf(xs);
  ASSERT_EQ(e.x.size(), 4U);  // distinct values 1,2,3,5
  EXPECT_DOUBLE_EQ(e.x[0], 1.0);
  EXPECT_DOUBLE_EQ(e.f[0], 0.2);
  EXPECT_DOUBLE_EQ(e.x[1], 2.0);
  EXPECT_DOUBLE_EQ(e.f[1], 0.6);  // ties collapse to the last occurrence
  EXPECT_DOUBLE_EQ(e.f.back(), 1.0);
  for (std::size_t i = 1; i < e.f.size(); ++i) EXPECT_GT(e.f[i], e.f[i - 1]);
}

TEST(Ecdf, CcdfComplements) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const Ecdf e = ecdf(xs);
  const auto c = e.ccdf();
  ASSERT_EQ(c.size(), e.f.size());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_DOUBLE_EQ(c[i], 1.0 - e.f[i]);
  EXPECT_DOUBLE_EQ(c.back(), 0.0);
}

TEST(Ecdf, EmptyInput) {
  const Ecdf e = ecdf({});
  EXPECT_TRUE(e.x.empty());
}

}  // namespace
}  // namespace fullweb::stats
