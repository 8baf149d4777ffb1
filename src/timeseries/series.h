// Counting time series: events-per-unit-of-time vectors and block
// aggregation.
//
// The paper's request-based and session-based series are "number of
// requests (sessions initiated) per second". Aggregation follows eq. (1):
//   X^(m)_k = (1/m) * sum_{i=(k-1)m+1..km} X_i,
// averaging non-overlapping blocks of size m (trailing partial block
// dropped), the operation under which self-similarity is defined (eq. 2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fullweb::timeseries {

/// Build a counts-per-bin series from event timestamps (seconds, not
/// necessarily sorted). The series spans [t0, t1) with `bin_seconds` bins;
/// events outside the span, and NaN times, are ignored. The series is empty
/// when bin_seconds is not finite and positive, when t0 or t1 is not finite
/// or t1 <= t0, or when the span holds 2^63 bins or more.
[[nodiscard]] std::vector<double> counts_per_bin(std::span<const double> event_times,
                                                 double t0, double t1,
                                                 double bin_seconds = 1.0);

/// Block-average aggregation at level m (eq. 1). m == 1 returns a copy;
/// m == 0 returns an empty series. A trailing partial block is dropped.
[[nodiscard]] std::vector<double> aggregate(std::span<const double> xs,
                                            std::size_t m);

/// Variance of the m-aggregated series for each m in `levels` — the raw
/// ingredient of the variance-time plot.
[[nodiscard]] std::vector<double> aggregated_variances(
    std::span<const double> xs, std::span<const std::size_t> levels);

/// Logarithmically spaced aggregation levels from 1 to at most n / min_blocks
/// (so each aggregated series keeps at least `min_blocks` points),
/// `count` levels, deduplicated and sorted.
[[nodiscard]] std::vector<std::size_t> log_spaced_levels(std::size_t n,
                                                         std::size_t count = 20,
                                                         std::size_t min_blocks = 50);

}  // namespace fullweb::timeseries
