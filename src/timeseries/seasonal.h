// Periodicity detection and seasonal-component removal.
//
// The paper finds a 24-hour period (day/night traffic cycle) in every
// request-based series via the periodogram, and removes the seasonal
// component by differencing (Box-Jenkins seasonal differencing) before
// re-running the KPSS test and the Hurst estimators. A seasonal-means
// alternative is provided for the stationarity ablation bench: unlike
// differencing it preserves series length and does not recolor the spectrum.
//
// Detection and strength read only the periodogram band around the search
// range and the band's Parseval total (stats::periodogram_band), never the
// full periodogram: on a week of 1-second bins that is ~170 ordinates
// instead of a week-length FFT.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/periodogram.h"
#include "support/result.h"

namespace fullweb::timeseries {

/// Find the dominant period (in samples) of `xs` via the periodogram,
/// searching periods in [min_period, max_period]. Rounds to the nearest
/// integer number of samples. Errors when the bounds are invalid
/// (min_period < 2 or max_period < min_period) or the series is too short
/// (needs at least two full cycles of max_period). Costs O(n) per ordinate
/// in the band (see stats::periodogram_band), so it suits a narrow search
/// like the diurnal one.
[[nodiscard]] support::Result<std::size_t> detect_period(
    std::span<const double> xs, std::size_t min_period, std::size_t max_period);

/// Same search on a band computed for the same bounds — the
/// stationarization pipeline computes one band and shares it between period
/// detection and strength measurement. The caller is responsible for the
/// series-length precondition (>= two full cycles of max_period).
[[nodiscard]] support::Result<std::size_t> detect_period(
    const stats::PeriodogramBand& band, std::size_t min_period,
    std::size_t max_period);

/// Seasonal differencing: y_t = x_t - x_{t-s}. Output has n - s samples.
/// Precondition: 1 <= s < xs.size().
[[nodiscard]] std::vector<double> seasonal_difference(std::span<const double> xs,
                                                      std::size_t period);

/// Seasonal-means removal: subtract the mean of each phase (t mod s) and add
/// back the grand mean. Output has the same length as the input.
[[nodiscard]] std::vector<double> remove_seasonal_means(std::span<const double> xs,
                                                        std::size_t period);

/// Ratio of periodogram power within 1.5 bins of the period's frequency to
/// total power — an effect-size diagnostic for "how periodic is this
/// series".
[[nodiscard]] double seasonal_strength(std::span<const double> xs,
                                       std::size_t period);

/// Same ratio from a band whose bounds bracket `period` (any band that
/// detect_period searched for it does).
[[nodiscard]] double seasonal_strength(const stats::PeriodogramBand& band,
                                       std::size_t period);

}  // namespace fullweb::timeseries
