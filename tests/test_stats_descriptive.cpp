#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "support/rng.h"

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

TEST(Quantile, EmptySampleIsNaN) {
  // An empty sample has no quantile; it used to read before the data
  // (SIGSEGV under NDEBUG).
  const std::vector<double> none;
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_TRUE(std::isnan(quantile(none, q))) << q;
    EXPECT_TRUE(std::isnan(quantile_sorted(none, q))) << q;
  }
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

TEST(RadixSort, MatchesStdSortWithNegativeZeroFirst) {
  // Random doubles of every exponent (subnormals through overflow to inf),
  // both signs, heavy ties, whole numbers that share low mantissa bytes,
  // and the special values sprinkled in. The sequence must be std::sort's,
  // with the one difference std::sort leaves open: its run of zeros may
  // mix -0.0 and +0.0 in any order, the radix sort puts -0.0 first.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,
                             -0.0,
                             kInf,
                             -kInf,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             0x1.8p-1030,
                             -0x1.8p-1030,
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::lowest(),
                             1.0,
                             -1.0};
  support::Rng rng(4242);
  for (std::size_t c = 0; c < 600; ++c) {
    const std::size_t n =
        c % 7 == 0 ? static_cast<std::size_t>(rng.below(5000))
                   : static_cast<std::size_t>(rng.below(64));
    std::vector<double> xs(n);
    for (auto& x : xs) {
      const double sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
      switch (c % 4) {
        case 0:  // any exponent
          x = sign * std::ldexp(rng.uniform(),
                                static_cast<int>(rng.below(2100)) - 1074);
          break;
        case 1:  // few values, both signs
          x = sign * static_cast<double>(rng.below(6));
          break;
        case 2:  // whole numbers, like byte counts
          x = std::floor(std::pow(rng.uniform_pos(), -1.0 / 1.2));
          break;
        default:  // one value repeated, sometimes
          x = c % 8 == 3 ? 2.5 : sign * rng.uniform();
          break;
      }
      if (rng.uniform() < 0.1) x = specials[rng.below(std::size(specials))];
    }
    std::vector<double> want = xs;
    std::sort(want.begin(), want.end());
    const auto [zlo, zhi] = std::equal_range(want.begin(), want.end(), 0.0);
    std::stable_partition(zlo, zhi, [](double z) { return std::signbit(z); });
    radix_sort(xs);
    ASSERT_EQ(xs.size(), want.size());
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(xs[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "case " << c << " n " << n << " i " << i;
  }
}

}  // namespace
}  // namespace fullweb::stats
