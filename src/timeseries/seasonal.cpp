#include "timeseries/seasonal.h"

#include <cassert>
#include <cmath>
#include <numbers>

#include "stats/descriptive.h"
#include "stats/periodogram.h"

namespace fullweb::timeseries {

using support::Error;
using support::Result;

Result<std::size_t> detect_period(std::span<const double> xs,
                                  std::size_t min_period, std::size_t max_period) {
  if (min_period < 2 || max_period < min_period)
    return Error::invalid_argument("detect_period: bad period bounds");
  if (xs.size() < 2 * max_period)
    return Error::insufficient_data(
        "detect_period: need at least two full cycles of max_period");

  const auto band = stats::periodogram_band(xs, min_period, max_period);
  if (!band) return band.error();
  return detect_period(band.value(), min_period, max_period);
}

Result<std::size_t> detect_period(const stats::PeriodogramBand& band,
                                  std::size_t min_period,
                                  std::size_t max_period) {
  if (min_period < 2 || max_period < min_period)
    return Error::invalid_argument("detect_period: bad period bounds");
  const double period =
      stats::dominant_period(band.ordinates, static_cast<double>(min_period),
                             static_cast<double>(max_period));
  if (period <= 0.0)
    return Error::numeric("detect_period: no periodogram ordinate in range");
  return static_cast<std::size_t>(std::lround(period));
}

std::vector<double> seasonal_difference(std::span<const double> xs,
                                        std::size_t period) {
  assert(period >= 1 && period < xs.size());
  std::vector<double> out(xs.size() - period);
  for (std::size_t t = period; t < xs.size(); ++t)
    out[t - period] = xs[t] - xs[t - period];
  return out;
}

std::vector<double> remove_seasonal_means(std::span<const double> xs,
                                          std::size_t period) {
  assert(period >= 1);
  const std::size_t n = xs.size();
  std::vector<double> phase_sum(period, 0.0);
  std::vector<std::size_t> phase_count(period, 0);
  for (std::size_t t = 0; t < n; ++t) {
    phase_sum[t % period] += xs[t];
    ++phase_count[t % period];
  }
  const double grand_mean = n > 0 ? stats::mean(xs) : 0.0;
  std::vector<double> out(n);
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t p = t % period;
    const double pm = phase_count[p] > 0
                          ? phase_sum[p] / static_cast<double>(phase_count[p])
                          : grand_mean;
    out[t] = xs[t] - pm + grand_mean;
  }
  return out;
}

double seasonal_strength(std::span<const double> xs, std::size_t period) {
  if (xs.size() < 4 || period < 2) return 0.0;
  const auto band = stats::periodogram_band(xs, period, period);
  return band ? seasonal_strength(band.value(), period) : 0.0;
}

double seasonal_strength(const stats::PeriodogramBand& band,
                         std::size_t period) {
  if (band.n < 4 || period < 2) return 0.0;
  if (!(band.total_power > 0.0)) return 0.0;

  // Sum power within 1.5 bins of the target frequency.
  const double target =
      2.0 * std::numbers::pi / static_cast<double>(period);
  const double bin = 2.0 * std::numbers::pi / static_cast<double>(band.n);
  const auto& pg = band.ordinates;
  double at_period = 0.0;
  for (std::size_t i = 0; i < pg.frequency.size(); ++i) {
    if (std::fabs(pg.frequency[i] - target) <= 1.5 * bin) at_period += pg.power[i];
  }
  return at_period / band.total_power;
}

}  // namespace fullweb::timeseries
