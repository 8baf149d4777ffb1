#include "core/stationary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <optional>
#include <utility>
#include <vector>

#include "stats/periodogram.h"
#include "support/rng.h"
#include "synth/generator.h"
#include "timeseries/detrend.h"
#include "timeseries/seasonal.h"

namespace fullweb::core {
namespace {

std::vector<double> noise(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.normal();
  return xs;
}

/// Noise + trend + daily sinusoid with a short "day" so tests stay fast.
std::vector<double> workload_like(std::size_t n, std::size_t day, double trend,
                                  double amplitude, std::uint64_t seed) {
  auto xs = noise(n, seed);
  for (std::size_t t = 0; t < n; ++t) {
    xs[t] += trend * static_cast<double>(t) +
             amplitude * std::sin(2.0 * std::numbers::pi * static_cast<double>(t) /
                                  static_cast<double>(day));
  }
  return xs;
}

StationaryOptions short_day_options() {
  StationaryOptions opts;
  opts.min_period = 50;
  opts.max_period = 500;
  return opts;
}

TEST(MakeStationary, AlreadyStationaryPassesThrough) {
  const auto xs = noise(4000, 1);
  const auto r = make_stationary(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().was_stationary);
  EXPECT_FALSE(r.value().trend_removed);
  EXPECT_EQ(r.value().series.size(), xs.size());
  EXPECT_EQ(r.value().series, xs);
}

TEST(MakeStationary, TrendAndSeasonRemovedAndKpssPasses) {
  const auto xs = workload_like(8000, 200, 0.002, 4.0, 2);
  const auto r = make_stationary(xs, short_day_options());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().was_stationary);
  EXPECT_TRUE(r.value().trend_removed);
  EXPECT_TRUE(r.value().seasonal_removed);
  EXPECT_NEAR(static_cast<double>(r.value().period), 200.0, 10.0);
  ASSERT_TRUE(r.value().kpss_stationary.has_value());
  EXPECT_TRUE(r.value().kpss_stationary->stationary_at_5pct());
  // Differencing shortens the series by one period.
  EXPECT_EQ(r.value().series.size(), xs.size() - r.value().period);
}

TEST(MakeStationary, TrendSlopeEstimated) {
  const auto xs = workload_like(8000, 200, 0.003, 2.0, 3);
  const auto r = make_stationary(xs, short_day_options());
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().trend_slope, 0.003, 5e-4);
}

TEST(MakeStationary, UnconditionalModeProcessesStationaryInput) {
  auto opts = short_day_options();
  opts.only_if_nonstationary = false;
  const auto xs = noise(4000, 5);
  const auto r = make_stationary(xs, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().was_stationary);
  EXPECT_TRUE(r.value().trend_removed);  // processed anyway
}

TEST(MakeStationary, ShortSeriesSkipsSeasonalDetection) {
  // Series shorter than 2 * max_period: trend removal only.
  auto opts = short_day_options();
  opts.max_period = 5000;
  const auto xs = workload_like(6000, 200, 0.01, 0.0, 6);
  const auto r = make_stationary(xs, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().trend_removed);
  EXPECT_FALSE(r.value().seasonal_removed);
  EXPECT_EQ(r.value().period, 0U);
}

TEST(MakeStationary, ErrorsOnDegenerateInput) {
  EXPECT_FALSE(make_stationary(std::vector<double>(5, 1.0)).ok());
  EXPECT_FALSE(make_stationary(std::vector<double>(100, 3.0)).ok());
}

TEST(MakeStationary, SeasonalStrengthReported) {
  const auto strong = workload_like(8000, 200, 0.0, 8.0, 7);
  auto opts = short_day_options();
  opts.only_if_nonstationary = false;
  const auto r = make_stationary(strong, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().seasonal_strength, 0.3);
}

TEST(MakeStationary, RejectsInvalidPeriodBounds) {
  const auto xs = workload_like(8000, 200, 0.002, 4.0, 8);
  for (const auto& [lo, hi] :
       {std::pair<std::size_t, std::size_t>{0, 500}, {1, 500}, {600, 500}}) {
    StationaryOptions opts;
    opts.min_period = lo;
    opts.max_period = hi;
    const auto r = make_stationary(xs, opts);
    ASSERT_FALSE(r.ok()) << lo << ".." << hi;
    EXPECT_EQ(r.error().category, "invalid_argument") << lo << ".." << hi;
  }
}

// ---------------------------------------------- reference seasonal scan

/// What make_stationary computes with only_if_nonstationary = false and
/// seasonal differencing, spelled out on the full FFT periodogram: the
/// dominant period and its strength over every ordinate, the differenced
/// series and its KPSS. Kept only as the executable spec the band scan must
/// match.
struct ReferenceStationary {
  std::size_t period = 0;
  double strength = 0.0;
  std::vector<double> series;
  std::optional<stats::KpssResult> kpss_post;
};

ReferenceStationary make_stationary_reference(std::span<const double> xs,
                                              const StationaryOptions& opts) {
  ReferenceStationary ref;
  ref.series = timeseries::detrend_linear(xs, /*keep_mean=*/true).residual;
  const std::size_t n = ref.series.size();
  if (n >= 2 * opts.max_period) {
    const auto pg = stats::periodogram(ref.series);
    const double period =
        stats::dominant_period(pg, static_cast<double>(opts.min_period),
                               static_cast<double>(opts.max_period));
    if (period > 0.0) {
      ref.period = static_cast<std::size_t>(std::lround(period));
      const double target =
          2.0 * std::numbers::pi / static_cast<double>(ref.period);
      const double bin = 2.0 * std::numbers::pi / static_cast<double>(n);
      double total = 0.0, at_period = 0.0;
      for (std::size_t i = 0; i < pg.power.size(); ++i) {
        total += pg.power[i];
        if (std::fabs(pg.frequency[i] - target) <= 1.5 * bin)
          at_period += pg.power[i];
      }
      ref.strength = at_period / total;
      ref.series = timeseries::seasonal_difference(ref.series, ref.period);
    }
  }
  if (auto post = stats::kpss_test(ref.series); post.ok())
    ref.kpss_post = post.value();
  return ref;
}

void expect_matches_reference(std::span<const double> xs,
                              StationaryOptions opts) {
  opts.only_if_nonstationary = false;
  const auto ref = make_stationary_reference(xs, opts);
  const auto r = make_stationary(xs, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().period, ref.period);
  EXPECT_EQ(r.value().seasonal_removed, ref.period > 0);
  EXPECT_NEAR(r.value().seasonal_strength, ref.strength, 1e-12 * ref.strength);
  EXPECT_EQ(r.value().series, ref.series);  // bit-identical differencing
  ASSERT_EQ(r.value().kpss_stationary.has_value(), ref.kpss_post.has_value());
  if (ref.kpss_post) {
    EXPECT_EQ(r.value().kpss_stationary->statistic, ref.kpss_post->statistic);
    EXPECT_EQ(r.value().kpss_stationary->p_value, ref.kpss_post->p_value);
    EXPECT_EQ(r.value().kpss_stationary->lag, ref.kpss_post->lag);
  }
}

TEST(MakeStationary, BandScanMatchesFullPeriodogramReferenceOnShortDays) {
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    SCOPED_TRACE(seed);
    expect_matches_reference(workload_like(8000, 200, 0.002, 4.0, seed),
                             short_day_options());
    expect_matches_reference(workload_like(9973, 137, 0.0, 1.0, seed),
                             short_day_options());
    expect_matches_reference(noise(6001, seed), short_day_options());
  }
}

TEST(MakeStationary, BandScanMatchesFullPeriodogramReferenceOnWeekLogs) {
  // A week of synthetic traffic per server profile, binned per second as
  // the fit bins real logs: n = t1 - t0, never a smooth length.
  const synth::ServerProfile profiles[] = {
      synth::ServerProfile::wvu(), synth::ServerProfile::clarknet(),
      synth::ServerProfile::csee(), synth::ServerProfile::nasa_pub2()};
  std::uint64_t seed = 30;
  for (const auto& profile : profiles) {
    support::Rng rng(seed++);
    synth::GeneratorOptions gen;
    gen.scale = 0.01;
    auto ds = synth::generate_dataset(profile, gen, rng);
    ASSERT_TRUE(ds.ok());
    SCOPED_TRACE(profile.name);
    expect_matches_reference(ds.value().requests_per_second(), {});
    expect_matches_reference(ds.value().sessions_per_second(), {});
  }
}

}  // namespace
}  // namespace fullweb::core
