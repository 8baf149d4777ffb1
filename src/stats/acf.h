// Sample autocorrelation function.
//
// The paper's Figures 3 and 5 plot the ACF of the requests-per-second series
// before and after removing trend and periodicity; the slow (non-summable)
// decay is the visual signature of long-range dependence. The Poisson test
// battery (§4.2) also needs lag-1 autocorrelations of inter-arrival times.
#pragma once

#include <span>
#include <vector>

namespace fullweb::stats {

/// Sample autocorrelation r(k) for k = 0..max_lag (r(0) == 1).
/// Uses the biased estimator r(k) = c(k)/c(0) with
/// c(k) = (1/n) * sum_{t} (x_t - xbar)(x_{t+k} - xbar), the standard choice
/// that guarantees a positive semi-definite sequence.
/// Computed via FFT in O(n log n); returns a vector of max_lag + 1 values,
/// max_lag clamped to n - 1. An empty series has no lags and returns an
/// empty vector. A constant series (zero variance) returns r(0)=1 and r(k)=0
/// for k>0.
[[nodiscard]] std::vector<double> acf(std::span<const double> xs,
                                      std::size_t max_lag);

/// Direct O(n) lag-k autocorrelation (no FFT); exact same estimator.
[[nodiscard]] double autocorrelation_at(std::span<const double> xs,
                                        std::size_t lag) noexcept;

/// Sum of |r(k)| for k = 1..max_lag: a finite-sample proxy for the
/// non-summability criterion used when comparing raw vs detrended ACFs.
/// NaN for an empty series, which has no ACF to sum.
[[nodiscard]] double acf_abs_sum(std::span<const double> xs, std::size_t max_lag);

}  // namespace fullweb::stats
