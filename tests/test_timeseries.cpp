// Tests for counting series, aggregation, detrending, and seasonal removal.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <utility>
#include <vector>

#include "stats/descriptive.h"
#include "support/rng.h"
#include "timeseries/detrend.h"
#include "timeseries/seasonal.h"
#include "timeseries/series.h"

namespace fullweb::timeseries {
namespace {

TEST(CountsPerBin, BasicBinning) {
  const std::vector<double> events = {0.1, 0.9, 1.5, 3.2, 3.9};
  const auto counts = counts_per_bin(events, 0.0, 4.0, 1.0);
  ASSERT_EQ(counts.size(), 4U);
  EXPECT_DOUBLE_EQ(counts[0], 2.0);
  EXPECT_DOUBLE_EQ(counts[1], 1.0);
  EXPECT_DOUBLE_EQ(counts[2], 0.0);
  EXPECT_DOUBLE_EQ(counts[3], 2.0);
}

TEST(CountsPerBin, EventsOutsideWindowIgnored) {
  const std::vector<double> events = {-1.0, 0.5, 4.0, 10.0};
  const auto counts = counts_per_bin(events, 0.0, 4.0, 1.0);
  double total = 0;
  for (double c : counts) total += c;
  EXPECT_DOUBLE_EQ(total, 1.0);  // only 0.5 falls in [0, 4)
}

TEST(CountsPerBin, WiderBins) {
  const std::vector<double> events = {0, 1, 2, 3, 4, 5};
  const auto counts = counts_per_bin(events, 0.0, 6.0, 2.0);
  ASSERT_EQ(counts.size(), 3U);
  for (double c : counts) EXPECT_DOUBLE_EQ(c, 2.0);
}

TEST(CountsPerBin, PartialLastBin) {
  const auto counts = counts_per_bin(std::vector<double>{}, 0.0, 5.0, 2.0);
  EXPECT_EQ(counts.size(), 3U);  // ceil(5/2)
}

TEST(CountsPerBin, DegenerateArgumentsGiveAnEmptySeries) {
  // A zero width once indexed past the vector and a NaN width threw
  // std::length_error; every bad width or window is now the documented
  // empty series.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> events = {0.5, 1.5, 2.5};
  for (const double width : {0.0, -1.0, nan, inf, -inf})
    EXPECT_TRUE(counts_per_bin(events, 0.0, 4.0, width).empty()) << width;
  for (const auto& [t0, t1] :
       {std::pair{4.0, 4.0}, std::pair{4.0, 0.0}, std::pair{nan, 4.0},
        std::pair{0.0, nan}, std::pair{-inf, 4.0}, std::pair{0.0, inf}})
    EXPECT_TRUE(counts_per_bin(events, t0, t1, 1.0).empty())
        << "[" << t0 << ", " << t1 << ")";
  // A finite window of more bins than a vector can hold.
  EXPECT_TRUE(counts_per_bin(events, 0.0, 1.0e300, 1.0e-300).empty());
}

TEST(CountsPerBin, NonFiniteTimesAreNotCounted) {
  // A NaN time used to pass the window test and land in the last bin.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> events = {0.5, 1.5, nan, inf, -inf, 2.5};
  const auto counts = counts_per_bin(events, 0.0, 4.0, 1.0);
  EXPECT_EQ(counts, (std::vector<double>{1.0, 1.0, 1.0, 0.0}));
}

TEST(Aggregate, LevelZeroIsEmpty) {
  // m = 0 used to divide by zero (SIGFPE under NDEBUG).
  const std::vector<double> xs = {1, 2, 3};
  EXPECT_TRUE(aggregate(xs, 0).empty());
  EXPECT_TRUE(aggregate(std::vector<double>{}, 0).empty());
}

TEST(Aggregate, PaperEquationOne) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7};
  const auto agg = aggregate(xs, 3);
  ASSERT_EQ(agg.size(), 2U);  // trailing partial block dropped
  EXPECT_DOUBLE_EQ(agg[0], 2.0);
  EXPECT_DOUBLE_EQ(agg[1], 5.0);
}

TEST(Aggregate, LevelOneIsIdentity) {
  const std::vector<double> xs = {1, 2, 3};
  EXPECT_EQ(aggregate(xs, 1), xs);
}

TEST(Aggregate, PreservesMeanOfCoveredBlocks) {
  support::Rng rng(1);
  std::vector<double> xs(1000);
  for (auto& x : xs) x = rng.uniform();
  const auto agg = aggregate(xs, 10);
  EXPECT_NEAR(stats::mean(agg), stats::mean(xs), 1e-12);
}

TEST(Aggregate, WhiteNoiseVarianceScalesAsOneOverM) {
  support::Rng rng(2);
  std::vector<double> xs(200000);
  for (auto& x : xs) x = rng.normal();
  const std::vector<std::size_t> levels = {1, 4, 16, 64};
  const auto vars = aggregated_variances(xs, levels);
  // Var(X^(m)) = Var(X)/m for iid: ratios ~ 4.
  EXPECT_NEAR(vars[0] / vars[1], 4.0, 0.5);
  EXPECT_NEAR(vars[1] / vars[2], 4.0, 0.7);
}

TEST(LogSpacedLevels, CoversRangeWithoutDuplicates) {
  const auto levels = log_spaced_levels(100000, 10, 50);
  ASSERT_GE(levels.size(), 5U);
  EXPECT_EQ(levels.front(), 1U);
  EXPECT_LE(levels.back(), 100000U / 50U);
  for (std::size_t i = 1; i < levels.size(); ++i)
    EXPECT_GT(levels[i], levels[i - 1]);
}

TEST(LogSpacedLevels, ShortSeriesGetsOnlyLevelOne) {
  const auto levels = log_spaced_levels(60, 10, 50);
  ASSERT_EQ(levels.size(), 1U);
  EXPECT_EQ(levels[0], 1U);
}

// ----------------------------------------------------------------- detrend

TEST(Detrend, RemovesExactLinearTrend) {
  std::vector<double> xs(1000);
  for (std::size_t t = 0; t < xs.size(); ++t)
    xs[t] = 5.0 + 0.02 * static_cast<double>(t);
  const auto fit = detrend_linear(xs);
  EXPECT_NEAR(fit.fit.slope, 0.02, 1e-12);
  // Residual should be flat at the mean level.
  const double m = stats::mean(xs);
  for (double r : fit.residual) EXPECT_NEAR(r, m, 1e-9);
}

TEST(Detrend, KeepMeanFalseCentersAtZero) {
  std::vector<double> xs(100);
  for (std::size_t t = 0; t < xs.size(); ++t)
    xs[t] = 3.0 + 0.1 * static_cast<double>(t);
  const auto fit = detrend_linear(xs, /*keep_mean=*/false);
  for (double r : fit.residual) EXPECT_NEAR(r, 0.0, 1e-9);
}

TEST(Detrend, RelativeDriftMeasuresEffectSize) {
  std::vector<double> xs(1001);
  for (std::size_t t = 0; t < xs.size(); ++t)
    xs[t] = 100.0 + 0.01 * static_cast<double>(t);  // +10 over window, mean 105
  const auto fit = detrend_linear(xs);
  EXPECT_NEAR(fit.relative_drift, 10.0 / 105.0, 1e-6);
}

TEST(Detrend, NoiseOnlySlopeNearZero) {
  support::Rng rng(3);
  std::vector<double> xs(10000);
  for (auto& x : xs) x = rng.normal();
  const auto fit = detrend_linear(xs);
  EXPECT_NEAR(fit.fit.slope, 0.0, 3.0 * fit.fit.stderr_slope + 1e-6);
}

// ---------------------------------------------------------------- seasonal

std::vector<double> daily_series(std::size_t days, std::size_t day_len,
                                 double amplitude, double noise,
                                 std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> xs(days * day_len);
  for (std::size_t t = 0; t < xs.size(); ++t) {
    xs[t] = 10.0 +
            amplitude * std::sin(2.0 * std::numbers::pi * static_cast<double>(t) /
                                 static_cast<double>(day_len)) +
            noise * rng.normal();
  }
  return xs;
}

TEST(DetectPeriod, FindsPlantedPeriod) {
  const auto xs = daily_series(7, 1440, 4.0, 1.0, 4);
  const auto period = detect_period(xs, 100, 3000);
  ASSERT_TRUE(period.ok());
  EXPECT_NEAR(static_cast<double>(period.value()), 1440.0, 40.0);
}

TEST(DetectPeriod, ErrorsWhenSeriesTooShort) {
  const auto xs = daily_series(1, 1440, 4.0, 1.0, 5);
  EXPECT_FALSE(detect_period(xs, 100, 3000).ok());
}

TEST(DetectPeriod, RejectsBadBounds) {
  const auto xs = daily_series(7, 100, 4.0, 1.0, 6);
  EXPECT_FALSE(detect_period(xs, 0, 10).ok());
  EXPECT_FALSE(detect_period(xs, 50, 10).ok());
}

TEST(SeasonalDifference, RemovesExactPeriodicity) {
  std::vector<double> xs(1000);
  for (std::size_t t = 0; t < xs.size(); ++t)
    xs[t] = std::sin(2.0 * std::numbers::pi * static_cast<double>(t) / 100.0);
  const auto diff = seasonal_difference(xs, 100);
  ASSERT_EQ(diff.size(), 900U);
  for (double d : diff) EXPECT_NEAR(d, 0.0, 1e-12);
}

TEST(SeasonalDifference, OutputLength) {
  const std::vector<double> xs(50, 1.0);
  EXPECT_EQ(seasonal_difference(xs, 7).size(), 43U);
}

TEST(RemoveSeasonalMeans, PreservesLengthAndGrandMean) {
  const auto xs = daily_series(5, 200, 3.0, 0.5, 7);
  const auto out = remove_seasonal_means(xs, 200);
  ASSERT_EQ(out.size(), xs.size());
  EXPECT_NEAR(stats::mean(out), stats::mean(xs), 1e-9);
  // Periodic component should be gone: per-phase means all equal grand mean.
  const auto strength_before = seasonal_strength(xs, 200);
  const auto strength_after = seasonal_strength(out, 200);
  EXPECT_LT(strength_after, 0.1 * strength_before);
}

TEST(SeasonalStrength, StrongerSignalHigherShare) {
  const auto weak = daily_series(7, 500, 0.5, 1.0, 8);
  const auto strong = daily_series(7, 500, 5.0, 1.0, 8);
  EXPECT_GT(seasonal_strength(strong, 500), seasonal_strength(weak, 500));
}

}  // namespace
}  // namespace fullweb::timeseries
