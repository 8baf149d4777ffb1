// The paper's stationarization pipeline (§4.1):
//   KPSS on the raw series -> least-squares trend removal -> periodogram
//   periodicity detection -> seasonal differencing -> KPSS re-test.
//
// Detection reads only the periodogram ordinates whose periods lie in the
// search range (stats::periodogram_band, O(n) per ordinate): a week of
// 1-second bins takes ~170 direct DFT ordinates, not a week-length FFT.
//
// Hurst estimators assume stationarity; skipping this pipeline overestimates
// long-range dependence (the paper's central methodological point).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "stats/kpss.h"
#include "support/result.h"

namespace fullweb::support {
class Executor;
class StageTimings;
}

namespace fullweb::core {

struct StationaryOptions {
  /// Periodicity search range in samples; defaults bracket the 24 h cycle
  /// for 1-second bins. Requires 2 <= min_period <= max_period
  /// (make_stationary returns invalid_argument otherwise). The series must
  /// cover >= 2 cycles of max_period for seasonal detection to run at all.
  std::size_t min_period = 3600;
  std::size_t max_period = 2 * 86400;
  /// Remove the trend / the seasonal component only when the raw KPSS
  /// rejects stationarity at 5% (true), or unconditionally (false).
  bool only_if_nonstationary = true;
  /// Task executor (null = the global pool). A parallel pool overlaps the
  /// raw KPSS with the detrend/periodicity scan — speculatively when
  /// only_if_nonstationary is set, since the verdict usually rejects on the
  /// week-scale series this pipeline exists for. Results are identical at
  /// any thread count; a serial executor keeps the early-return ordering
  /// and does no speculative work.
  support::Executor* executor = nullptr;
  /// Optional per-stage observer (null = off; see support/timing.h).
  support::StageTimings* timings = nullptr;
};

struct StationaryReport {
  stats::KpssResult kpss_raw;
  bool was_stationary = false;     ///< raw series already passed KPSS

  bool trend_removed = false;
  double trend_slope = 0.0;        ///< per-sample slope of the removed trend
  double relative_drift = 0.0;     ///< |trend over window| / mean level

  bool seasonal_removed = false;
  std::size_t period = 0;          ///< detected period in samples (0 = none)
  double seasonal_strength = 0.0;  ///< periodogram power fraction at period

  std::optional<stats::KpssResult> kpss_stationary;  ///< after processing
  std::vector<double> series;      ///< the stationary(ized) series
};

/// Run the pipeline. The returned series equals the input when the raw
/// series already passes KPSS and only_if_nonstationary is set.
[[nodiscard]] support::Result<StationaryReport> make_stationary(
    std::span<const double> xs, const StationaryOptions& options = {});

}  // namespace fullweb::core
