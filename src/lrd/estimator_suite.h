// Run the paper's full battery of five Hurst estimators on one series,
// and the aggregated-series sweep of Figures 7 and 8.
//
// The five estimators are independent, as are the per-level estimates of a
// sweep, so both fan out on the configured support::Executor. Estimators
// take no RNG and results are collected in a fixed order, so parallel and
// serial runs are bit-identical.
#pragma once

#include <span>
#include <vector>

#include "lrd/abry_veitch.h"
#include "lrd/hurst.h"
#include "lrd/periodogram_hurst.h"
#include "lrd/rs.h"
#include "lrd/variance_time.h"
#include "lrd/whittle.h"
#include "support/result.h"
#include "timeseries/pyramid.h"

namespace fullweb::support {
class Executor;
class StageTimings;
}

namespace fullweb::lrd {

/// One row of Figures 4/6/9/10: all five estimates for one series.
/// Estimators that fail (short/degenerate input) are simply absent.
struct HurstSuiteResult {
  std::vector<HurstEstimate> estimates;

  [[nodiscard]] const HurstEstimate* find(HurstMethod method) const noexcept {
    for (const auto& e : estimates)
      if (e.method == method) return &e;
    return nullptr;
  }
  /// Mean of the available point estimates.
  [[nodiscard]] double mean_h() const noexcept;
  /// True when every available estimate lies in (0.5, 1): the paper's
  /// criterion for concluding long-range dependence.
  [[nodiscard]] bool all_indicate_lrd() const noexcept;
};

struct HurstSuiteOptions {
  VarianceTimeOptions variance_time;
  RsOptions rs;
  PeriodogramHurstOptions periodogram;
  WhittleOptions whittle;
  AbryVeitchOptions abry_veitch;
  bool run_whittle = true;  ///< Whittle is O(n log n + n * iters); allow skip
  /// Task executor for the estimator fan-out (null = the global pool).
  support::Executor* executor = nullptr;
  /// Optional per-stage observer (null = off; see support/timing.h).
  support::StageTimings* timings = nullptr;
};

[[nodiscard]] HurstSuiteResult hurst_suite(std::span<const double> xs,
                                           const HurstSuiteOptions& options = {});

/// Estimates Ĥ^(m) on the m-aggregated series (eq. 1) for each aggregation
/// level, with the method's confidence interval — the data behind Figures 7
/// (Whittle) and 8 (Abry-Veitch). Levels whose aggregated series is too
/// short for the method are skipped.
struct AggregatedHurstPoint {
  std::size_t m = 1;
  HurstEstimate estimate;
};
[[nodiscard]] std::vector<AggregatedHurstPoint> aggregated_hurst_sweep(
    std::span<const double> xs, HurstMethod method,
    std::span<const std::size_t> levels, const HurstSuiteOptions& options = {});

/// Same sweep over a prebuilt aggregation pyramid, so several sweeps (e.g.
/// Figures 7 and 8 on one trace) share the aggregated series instead of
/// recomputing them per method. Levels come from the pyramid (sorted,
/// deduplicated, zeros dropped).
[[nodiscard]] std::vector<AggregatedHurstPoint> aggregated_hurst_sweep(
    const timeseries::AggregationPyramid& pyramid, HurstMethod method,
    const HurstSuiteOptions& options = {});

}  // namespace fullweb::lrd
