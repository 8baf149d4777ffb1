#include "core/stationary.h"

#include <optional>

#include "stats/periodogram.h"
#include "support/executor.h"
#include "support/timing.h"
#include "timeseries/detrend.h"
#include "timeseries/seasonal.h"

namespace fullweb::core {

using support::Error;
using support::Result;

namespace {

/// The detrend -> periodogram band -> period/strength chain (§4.1 steps
/// 1-2, before any removal). One band — the ordinates whose periods lie in
/// [min_period, max_period] plus the total power — serves both the
/// dominant-period scan and the strength diagnostic.
struct SeasonalScan {
  timeseries::TrendFit trend;
  std::optional<std::size_t> period;
  double strength = 0.0;
};

SeasonalScan scan_seasonality(std::span<const double> xs,
                              const StationaryOptions& options) {
  SeasonalScan scan;
  scan.trend = timeseries::detrend_linear(xs, /*keep_mean=*/true);
  const auto& working = scan.trend.residual;
  if (working.size() >= 2 * options.max_period) {
    support::StageTimer t(options.timings, "scan periodogram");
    // make_stationary validated the bounds, so the band cannot fail.
    const auto band = stats::periodogram_band(working, options.min_period,
                                              options.max_period)
                          .value();
    if (auto period = timeseries::detect_period(band, options.min_period,
                                                options.max_period);
        period.ok()) {
      scan.period = period.value();
      scan.strength = timeseries::seasonal_strength(band, *scan.period);
    }
  }
  return scan;
}

}  // namespace

Result<StationaryReport> make_stationary(std::span<const double> xs,
                                         const StationaryOptions& options) {
  if (options.min_period < 2 || options.max_period < options.min_period)
    return Error::invalid_argument("make_stationary: bad period bounds");
  StationaryReport report;
  support::Executor& ex = support::Executor::resolve(options.executor);

  // The raw KPSS and the seasonality scan are independent reads of the
  // input, so a parallel pool overlaps them. With only_if_nonstationary the
  // scan is speculative — a stationary verdict discards it — which is the
  // right trade on the nonstationary week-scale series this pipeline exists
  // for. Every value below is a pure function of the input, so the report
  // is identical at any thread count.
  std::optional<SeasonalScan> scan;
  Result<stats::KpssResult> raw =
      Error::invalid_argument("make_stationary: kpss did not run");
  if (ex.serial()) {
    support::StageTimer t(options.timings, "kpss (raw)");
    raw = stats::kpss_test(xs);
  } else {
    support::TaskGroup group(ex);
    group.run([&] {
      support::StageTimer t(options.timings, "kpss (raw)");
      raw = stats::kpss_test(xs);
    });
    group.run([&] {
      support::StageTimer t(options.timings, "seasonal scan");
      scan = scan_seasonality(xs, options);
    });
    group.wait();
  }
  if (!raw) return raw.error();
  report.kpss_raw = raw.value();
  report.was_stationary = report.kpss_raw.stationary_at_5pct();

  if (report.was_stationary && options.only_if_nonstationary) {
    report.series.assign(xs.begin(), xs.end());
    report.kpss_stationary = report.kpss_raw;
    return report;  // any speculative scan is discarded
  }

  if (!scan.has_value()) {
    support::StageTimer t(options.timings, "seasonal scan");
    scan = scan_seasonality(xs, options);
  }

  // 1. Trend: least-squares estimate, removed (mean level preserved).
  report.trend_removed = true;
  report.trend_slope = scan->trend.fit.slope;
  report.relative_drift = scan->trend.relative_drift;
  std::vector<double> working = std::move(scan->trend.residual);

  // 2. Periodicity: when detected, remove it by Box-Jenkins seasonal
  //    differencing, the paper's choice (the scan only ran the detection on
  //    series long enough to resolve two cycles of max_period).
  if (scan->period.has_value()) {
    report.period = *scan->period;
    report.seasonal_strength = scan->strength;
    working = timeseries::seasonal_difference(working, report.period);
    report.seasonal_removed = true;
  }

  support::StageTimer post_timer(options.timings, "kpss (post)");
  auto post = stats::kpss_test(working);
  post_timer.stop();
  if (post.ok()) report.kpss_stationary = post.value();
  report.series = std::move(working);
  return report;
}

}  // namespace fullweb::core
