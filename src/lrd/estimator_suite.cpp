#include "lrd/estimator_suite.h"

#include <array>
#include <optional>

#include "stats/fft.h"
#include "stats/prefix_moments.h"
#include "support/executor.h"
#include "support/timing.h"
#include "timeseries/series.h"

namespace fullweb::lrd {

double HurstSuiteResult::mean_h() const noexcept {
  if (estimates.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& e : estimates) sum += e.h;
  return sum / static_cast<double>(estimates.size());
}

bool HurstSuiteResult::all_indicate_lrd() const noexcept {
  if (estimates.empty()) return false;
  for (const auto& e : estimates)
    if (!e.indicates_lrd()) return false;
  return true;
}

namespace {

/// Dispatch one estimator by method on an already-aggregated series.
support::Result<HurstEstimate> run_estimator(std::span<const double> xs,
                                             HurstMethod method,
                                             const HurstSuiteOptions& options) {
  switch (method) {
    case HurstMethod::kVarianceTime:
      return variance_time_hurst(xs, options.variance_time);
    case HurstMethod::kRoverS:
      return rs_hurst(xs, options.rs);
    case HurstMethod::kPeriodogram:
      return periodogram_hurst(xs, options.periodogram);
    case HurstMethod::kWhittle: {
      auto r = whittle_hurst(xs, options.whittle);
      if (!r.ok()) return r.error();
      return r.value().estimate;
    }
    case HurstMethod::kAbryVeitch: {
      auto r = abry_veitch_hurst(xs, options.abry_veitch);
      if (!r.ok()) return r.error();
      return r.value().estimate;
    }
  }
  return support::Error::invalid_argument("unsupported aggregation method");
}

}  // namespace

HurstSuiteResult hurst_suite(std::span<const double> xs,
                             const HurstSuiteOptions& options) {
  // Shared inputs, built once before the fan-out: the prefix-moment
  // structure feeds both time-domain estimators (variance-time block
  // variances, R/S block moments and partial-sum walk) and the single
  // power-of-two-truncated periodogram feeds both frequency-domain ones
  // (GPH log-regression and Whittle likelihood). This removes the repeated
  // per-estimator cumsum/FFT passes over the same series.
  support::StageTimer pm_timer(options.timings, "prefix moments");
  const stats::PrefixMoments pm(xs);
  pm_timer.stop();
  support::Executor& ex = support::Executor::resolve(options.executor);
  // The shared FFT is serial work every estimator waits behind — chunk its
  // stages on the pool before the fan-out.
  support::StageTimer pg_timer(options.timings, "shared periodogram");
  const stats::Periodogram pg =
      stats::periodogram(stats::pow2_prefix(xs), &ex);
  pg_timer.stop();

  // Fixed battery order: fills the result slots concurrently, then collects
  // in this order so the output is identical to the old sequential code.
  std::array<std::optional<HurstEstimate>, 5> slots;
  support::TaskGroup group(ex);
  group.run([&] {
    support::StageTimer t(options.timings, "variance-time");
    if (auto r = variance_time_hurst(pm, options.variance_time); r.ok())
      slots[0] = r.value();
  });
  group.run([&] {
    support::StageTimer t(options.timings, "r/s");
    if (auto r = rs_hurst(pm, options.rs); r.ok()) slots[1] = r.value();
  });
  group.run([&] {
    support::StageTimer t(options.timings, "gph periodogram");
    if (auto r = periodogram_hurst_pg(pg, options.periodogram); r.ok())
      slots[2] = r.value();
  });
  // The sample-count policy lives here because the shared periodogram no
  // longer carries the original series length.
  if (options.run_whittle && xs.size() >= options.whittle.min_samples) {
    group.run([&] {
      support::StageTimer t(options.timings, "whittle");
      if (auto r = whittle_hurst_pg(pg, options.whittle); r.ok())
        slots[3] = r.value().estimate;
    });
  }
  group.run([&] {
    support::StageTimer t(options.timings, "abry-veitch");
    if (auto r = abry_veitch_hurst(xs, options.abry_veitch); r.ok())
      slots[4] = r.value().estimate;
  });
  group.wait();

  HurstSuiteResult out;
  for (const auto& slot : slots)
    if (slot.has_value()) out.estimates.push_back(*slot);
  return out;
}

namespace {

std::vector<AggregatedHurstPoint> sweep_over_pyramid(
    const timeseries::AggregationPyramid& pyramid,
    std::span<const std::size_t> levels, HurstMethod method,
    const HurstSuiteOptions& options) {
  std::vector<std::optional<AggregatedHurstPoint>> slots(levels.size());
  support::Executor& ex = support::Executor::resolve(options.executor);
  ex.parallel_for(0, levels.size(), [&](std::size_t i) {
    const std::size_t m = levels[i];
    if (m == 0) return;
    const auto agg = pyramid.level(m);
    if (auto est = run_estimator(agg, method, options); est.ok())
      slots[i] = AggregatedHurstPoint{m, est.value()};
  });

  std::vector<AggregatedHurstPoint> out;
  for (const auto& slot : slots)
    if (slot.has_value()) out.push_back(*slot);
  return out;
}

}  // namespace

std::vector<AggregatedHurstPoint> aggregated_hurst_sweep(
    std::span<const double> xs, HurstMethod method,
    std::span<const std::size_t> levels, const HurstSuiteOptions& options) {
  // The pyramid materializes every aggregated series once (cascading even
  // multiples from coarser levels), instead of one fresh O(n) aggregation
  // pass per level per method.
  const timeseries::AggregationPyramid pyramid(xs, levels);
  return sweep_over_pyramid(pyramid, levels, method, options);
}

std::vector<AggregatedHurstPoint> aggregated_hurst_sweep(
    const timeseries::AggregationPyramid& pyramid, HurstMethod method,
    const HurstSuiteOptions& options) {
  return sweep_over_pyramid(pyramid, pyramid.levels(), method, options);
}

}  // namespace fullweb::lrd
