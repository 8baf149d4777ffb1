#include "core/arrival_analysis.h"

#include <optional>

#include "support/executor.h"
#include "support/timing.h"
#include "timeseries/pyramid.h"

namespace fullweb::core {

using support::Result;

Result<ArrivalAnalysis> analyze_arrivals(std::span<const double> counts,
                                         const ArrivalAnalysisOptions& options) {
  ArrivalAnalysis out;
  support::Executor& ex = support::Executor::resolve(options.hurst.executor);

  lrd::HurstSuiteOptions hopts = options.hurst;
  if (hopts.timings == nullptr) hopts.timings = options.timings;

  // The raw-series suite and the stationarization read the same input and
  // are independent — run them concurrently. (hurst_suite fans out its five
  // estimators on the same executor internally.)
  Result<StationaryReport> st =
      support::Error::invalid_argument("stationarization did not run");
  {
    support::StageTimer phase(options.timings, "raw series");
    support::TaskGroup group(ex);
    group.run([&] {
      support::StageTimer t(options.timings, "hurst suite (raw)");
      out.hurst_raw = lrd::hurst_suite(counts, hopts);
    });
    group.run([&] {
      // Overlap the KPSS/seasonality stages inside make_stationary on the
      // same pool (it stays serial when the pool is).
      support::StageTimer t(options.timings, "stationarize");
      StationaryOptions sopts = options.stationary;
      if (sopts.executor == nullptr) sopts.executor = &ex;
      if (sopts.timings == nullptr) sopts.timings = options.timings;
      st = make_stationary(counts, sopts);
    });
    group.wait();
  }
  if (!st) return st.error();
  out.stationarity = std::move(st).value();

  // The stationary-series suite and the two Figure 7/8 sweeps all read the
  // stationarized series. Both sweeps use the same aggregation levels, so
  // one pyramid materializes each aggregated series once and the Whittle and
  // Abry-Veitch sweeps share it.
  std::optional<timeseries::AggregationPyramid> pyramid;
  if (options.run_aggregation_sweep) {
    support::StageTimer t(options.timings, "aggregation pyramid");
    pyramid.emplace(std::span<const double>(out.stationarity.series),
                    options.aggregation_levels);
  }
  support::StageTimer phase(options.timings, "stationary series");
  support::TaskGroup group(ex);
  group.run([&] {
    support::StageTimer t(options.timings, "hurst suite (stationary)");
    out.hurst_stationary = lrd::hurst_suite(out.stationarity.series, hopts);
  });
  if (pyramid.has_value()) {
    // The sweeps parallel_for over the aggregation levels.
    group.run([&] {
      support::StageTimer t(options.timings, "whittle sweep");
      out.whittle_sweep = lrd::aggregated_hurst_sweep(
          *pyramid, lrd::HurstMethod::kWhittle, options.hurst);
    });
    group.run([&] {
      support::StageTimer t(options.timings, "abry-veitch sweep");
      out.abry_veitch_sweep = lrd::aggregated_hurst_sweep(
          *pyramid, lrd::HurstMethod::kAbryVeitch, options.hurst);
    });
  }
  group.wait();
  return out;
}

}  // namespace fullweb::core
