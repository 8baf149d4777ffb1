#include "stats/periodogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "support/rng.h"
#include "timeseries/seasonal.h"

namespace fullweb::stats {
namespace {

TEST(Periodogram, PureSinePeaksAtItsFrequency) {
  const std::size_t n = 1024;
  const std::size_t cycle_bin = 32;  // 32 cycles over the window
  std::vector<double> xs(n);
  for (std::size_t t = 0; t < n; ++t)
    xs[t] = std::sin(2.0 * std::numbers::pi * static_cast<double>(cycle_bin * t) /
                     static_cast<double>(n));
  const auto pg = periodogram(xs);
  ASSERT_FALSE(pg.power.empty());

  std::size_t argmax = 0;
  for (std::size_t i = 1; i < pg.power.size(); ++i)
    if (pg.power[i] > pg.power[argmax]) argmax = i;
  // frequency index j corresponds to pg arrays offset j-1
  EXPECT_EQ(argmax, cycle_bin - 1);
}

TEST(Periodogram, FrequenciesAreHarmonics) {
  std::vector<double> xs(100, 0.0);
  xs[3] = 1.0;
  const auto pg = periodogram(xs);
  ASSERT_EQ(pg.frequency.size(), 49U);  // floor((100-1)/2)
  for (std::size_t j = 1; j <= pg.frequency.size(); ++j) {
    EXPECT_NEAR(pg.frequency[j - 1],
                2.0 * std::numbers::pi * static_cast<double>(j) / 100.0, 1e-12);
  }
}

TEST(Periodogram, MeanInvariance) {
  // Adding a constant must not change the periodogram (mean is removed).
  support::Rng rng(1);
  std::vector<double> a(256), b(256);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.normal();
    b[i] = a[i] + 100.0;
  }
  const auto pa = periodogram(a);
  const auto pb = periodogram(b);
  for (std::size_t i = 0; i < pa.power.size(); ++i)
    EXPECT_NEAR(pa.power[i], pb.power[i], 1e-9);
}

TEST(Periodogram, TotalPowerMatchesVariance) {
  // Sum of I(lambda_j) over all +/- frequencies ~ variance / (2 pi / n) ...
  // easier invariant: 4 pi / n * sum I ~= population variance for even n
  // without the Nyquist bin; use a tolerance.
  support::Rng rng(2);
  std::vector<double> xs(1001);  // odd: bins cover everything but j=0
  for (auto& x : xs) x = rng.normal();
  const auto pg = periodogram(xs);
  double total = 0;
  for (double p : pg.power) total += p;
  double var = 0, m = 0;
  for (double x : xs) m += x;
  m /= static_cast<double>(xs.size());
  for (double x : xs) var += (x - m) * (x - m);
  var /= static_cast<double>(xs.size());
  EXPECT_NEAR(4.0 * std::numbers::pi * total / static_cast<double>(xs.size()),
              var, 0.05 * var);
}

TEST(Periodogram, TooShortSeriesIsEmpty) {
  const std::vector<double> xs = {1.0};
  const auto pg = periodogram(xs);
  EXPECT_TRUE(pg.power.empty());
}

TEST(DominantPeriod, FindsDailyCycle) {
  // 86400-sample period embedded in noise, series of one "week" at a coarse
  // 60 s resolution: period = 1440 bins.
  const std::size_t n = 7 * 1440;
  support::Rng rng(3);
  std::vector<double> xs(n);
  for (std::size_t t = 0; t < n; ++t) {
    xs[t] = 5.0 * std::sin(2.0 * std::numbers::pi * static_cast<double>(t) / 1440.0) +
            rng.normal();
  }
  const auto pg = periodogram(xs);
  const double period = dominant_period(pg, 100.0, 4000.0);
  EXPECT_NEAR(period, 1440.0, 35.0);  // within one harmonic bin
}

TEST(DominantPeriod, RespectsSearchBounds) {
  const std::size_t n = 1000;
  std::vector<double> xs(n);
  for (std::size_t t = 0; t < n; ++t)
    xs[t] = std::sin(2.0 * std::numbers::pi * static_cast<double>(t) / 50.0);
  const auto pg = periodogram(xs);
  // Exclude the true 50-sample period from the window: nothing to find
  // above it but harmonics below; bounds [100, 400] exclude period 50.
  const double period = dominant_period(pg, 100.0, 400.0);
  EXPECT_TRUE(period == 0.0 || (period >= 100.0 && period <= 400.0));
}

// ------------------------------------------------------- periodogram_band

/// Noise, a linear trend and a cycle of `period` samples: the shape of a
/// per-second request series, with a peak for the search to find.
std::vector<double> cyclic_series(std::size_t n, double period,
                                  std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> xs(n);
  for (std::size_t t = 0; t < n; ++t)
    xs[t] = 40.0 + 1e-5 * static_cast<double>(t) +
            6.0 * std::sin(2.0 * std::numbers::pi * static_cast<double>(t) /
                           period) +
            3.0 * rng.normal();
  return xs;
}

/// The band against the full FFT periodogram of the same series: the same
/// ordinate indices and frequency bits, every ordinate within 1e-12 of the
/// band's largest, the Parseval total within 1e-12 relative of the sum of
/// all ordinates, and the same detected period.
void expect_band_matches_periodogram(std::span<const double> xs,
                                     std::size_t min_period,
                                     std::size_t max_period) {
  SCOPED_TRACE(testing::Message() << "n=" << xs.size() << " bounds ["
                                  << min_period << ", " << max_period << "]");
  const std::size_t n = xs.size();
  const auto result = periodogram_band(xs, min_period, max_period);
  ASSERT_TRUE(result.ok());
  const auto& band = result.value();
  const auto full = periodogram(xs);
  ASSERT_EQ(band.n, n);

  const std::size_t half = (n - 1) / 2;
  const std::size_t slowest = n / max_period;
  const std::size_t first = slowest > 3 ? slowest - 2 : 1;
  const std::size_t last =
      std::min(half, (n + min_period - 1) / min_period + 2);
  ASSERT_EQ(band.ordinates.power.size(), last - first + 1);
  ASSERT_EQ(band.ordinates.frequency.size(), last - first + 1);

  double largest = 0.0;
  for (double p : band.ordinates.power) largest = std::max(largest, p);
  ASSERT_GT(largest, 0.0);
  for (std::size_t c = 0; c < band.ordinates.power.size(); ++c) {
    const std::size_t i = first + c - 1;  // full.power[i] holds j = i + 1
    ASSERT_EQ(band.ordinates.frequency[c], full.frequency[i]) << "j=" << i + 1;
    ASSERT_NEAR(band.ordinates.power[c], full.power[i], 1e-12 * largest)
        << "j=" << i + 1;
  }

  double total = 0.0;
  for (double p : full.power) total += p;
  EXPECT_NEAR(band.total_power, total, 1e-12 * total);

  const double min_p = static_cast<double>(min_period);
  const double max_p = static_cast<double>(max_period);
  EXPECT_EQ(dominant_period(band.ordinates, min_p, max_p),
            dominant_period(full, min_p, max_p));
  if (n >= 2 * max_period) {
    const auto detected = timeseries::detect_period(xs, min_period, max_period);
    ASSERT_TRUE(detected.ok());
    EXPECT_EQ(detected.value(), static_cast<std::size_t>(std::lround(
                                    dominant_period(full, min_p, max_p))));
  }
}

TEST(PeriodogramBand, MatchesFullPeriodogramOnAwkwardLengths) {
  // A prime, a power of two, a smooth length and an odd composite; each
  // leaves a partial last block.
  expect_band_matches_periodogram(cyclic_series(10007, 360.0, 11), 50, 2000);
  expect_band_matches_periodogram(cyclic_series(1 << 14, 720.0, 12), 100, 4000);
  expect_band_matches_periodogram(cyclic_series(86400, 1440.0, 13), 600, 20000);
  expect_band_matches_periodogram(cyclic_series(12345, 500.0, 14), 60, 3000);
}

TEST(PeriodogramBand, MatchesFullPeriodogramOnAWeekAtDefaultBounds) {
  // t1 - t0 of a real week of 1-second bins: not smooth, so the full
  // periodogram is a Bluestein transform; the band is ~170 ordinates.
  expect_band_matches_periodogram(cyclic_series(604297, 86400.0, 15), 3600,
                                  2 * 86400);
}

TEST(PeriodogramBand, MatchesFullPeriodogramOnRandomBounds) {
  support::Rng rng(16);
  for (int trial = 0; trial < 24; ++trial) {
    const auto n = static_cast<std::size_t>(2000 + rng.uniform() * 30000);
    // Keep the band to at most a few hundred ordinates (the narrow-band
    // regime the kernel is for); max_period may exceed n.
    const auto min_period = std::max<std::size_t>(
        2, static_cast<std::size_t>(static_cast<double>(n) / 300.0 *
                                    (1.0 + 10.0 * rng.uniform())));
    const auto max_period =
        min_period + static_cast<std::size_t>(rng.uniform() * 1.2 *
                                              static_cast<double>(n));
    const double cycle = 2.0 + rng.uniform() * static_cast<double>(n) / 4.0;
    expect_band_matches_periodogram(
        cyclic_series(n, cycle, 100 + static_cast<std::uint64_t>(trial)),
        min_period, max_period);
  }
}

TEST(PeriodogramBand, BandAboveNyquistIsEmptyButKeepsTheTotal) {
  const auto xs = cyclic_series(1000, 50.0, 17);
  const auto band = periodogram_band(xs, 1, 1).value();
  EXPECT_TRUE(band.ordinates.power.empty());
  const auto full = periodogram(xs);
  double total = 0.0;
  for (double p : full.power) total += p;
  EXPECT_NEAR(band.total_power, total, 1e-12 * total);
}

TEST(PeriodogramBand, TooShortSeriesIsEmpty) {
  const std::vector<double> xs = {1.0};
  const auto band = periodogram_band(xs, 2, 10).value();
  EXPECT_TRUE(band.ordinates.power.empty());
  EXPECT_EQ(band.total_power, 0.0);
}

TEST(PeriodogramBand, ConstantSeriesHasNoPower) {
  const std::vector<double> xs(5000, 7.0);
  const auto band = periodogram_band(xs, 50, 500).value();
  for (double p : band.ordinates.power) EXPECT_EQ(p, 0.0);
  EXPECT_EQ(band.total_power, 0.0);
}

TEST(PeriodogramBand, RejectsInvalidBounds) {
  const auto xs = cyclic_series(1000, 50.0, 18);
  EXPECT_FALSE(periodogram_band(xs, 0, 100).ok());
  EXPECT_FALSE(periodogram_band(xs, 200, 100).ok());
}

}  // namespace
}  // namespace fullweb::stats
