// Descriptive statistics, quantiles and the shared ascending sort.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

namespace fullweb::stats {

/// Arithmetic mean. Precondition: !xs.empty().
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Neumaier-compensated running sum: exact to ~1 ulp of the true sum even
/// when terms cancel or a large offset dominates (Kahan's variant that also
/// handles |term| > |sum|). The building block of stats::PrefixMoments and
/// the compensated demean paths in kpss_test / rs_plot.
struct NeumaierSum {
  double sum = 0.0;
  double comp = 0.0;

  void add(double x) noexcept {
    const double t = sum + x;
    // Branchless form of "whichever operand was larger lost the low bits".
    const double big = std::abs(sum) >= std::abs(x) ? sum : x;
    const double small = std::abs(sum) >= std::abs(x) ? x : sum;
    comp += (big - t) + small;
    sum = t;
  }
  [[nodiscard]] double value() const noexcept { return sum + comp; }
};

/// Compensated sum / mean of a span (Neumaier). mean requires !xs.empty().
[[nodiscard]] double compensated_sum(std::span<const double> xs) noexcept;
[[nodiscard]] double compensated_mean(std::span<const double> xs) noexcept;

/// Per-block means of consecutive, non-overlapping blocks of size m:
/// out[k] = mean(xs[k*m .. (k+1)*m)). Requires xs.size() >= out.size() * m
/// and m >= 1. Four-lane accumulation: the inner loop is branch-free and
/// contiguous so it vectorizes; blocks shorter than one lane group reduce
/// serially (left-to-right), matching the naive order exactly for m < 4.
void block_means(std::span<const double> xs, std::size_t m,
                 std::span<double> out) noexcept;

/// Per-block population variances of consecutive blocks of size m, two-pass
/// (each block centered by its own mean). Same preconditions as block_means.
void block_variances(std::span<const double> xs, std::size_t m,
                     std::span<double> out) noexcept;

/// Min/max of the drifted prefix walk w_k = cum[k] - base - (k+1) * step for
/// k = 0..cum.size()-1, over {0} ∪ {w_k} (the R/S adjusted-range convention:
/// the walk starts at 0 before the first term). Branch-free lanes.
void minmax_prefix_walk(std::span<const double> cum, double base, double step,
                        double& min_out, double& max_out) noexcept;

/// Unbiased sample variance (divides by n-1). Returns 0 for n < 2.
[[nodiscard]] double variance(std::span<const double> xs) noexcept;

/// Population variance (divides by n). Returns 0 for n < 1.
[[nodiscard]] double variance_population(std::span<const double> xs) noexcept;

[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

[[nodiscard]] double min_value(std::span<const double> xs) noexcept;
[[nodiscard]] double max_value(std::span<const double> xs) noexcept;

/// Linear-interpolated quantile (type 7, the R default). q in [0, 1].
/// Precondition: !xs.empty(). Input need not be sorted.
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// Quantile on data the caller has already sorted ascending (no copy).
/// A NaN q yields NaN.
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q) noexcept;

/// Sorts ascending by an LSD radix sort over order-preserving keys, 8 bits
/// a digit, skipping a digit every key shares (whole-number samples share
/// their low mantissa bytes). Gives std::sort's sequence for any input
/// without NaN, except that -0.0 always precedes +0.0; a NaN goes to the
/// end its sign bit names (+NaN above +inf, -NaN below -inf). Built with
/// the hot-kernel flags (radix_sort.cpp).
void radix_sort(std::span<double> xs);

/// Five-number summary plus mean/sd, used in workload reports.
struct Summary {
  std::size_t n = 0;
  double mean = 0, stddev = 0;
  double min = 0, q25 = 0, median = 0, q75 = 0, max = 0;
};
[[nodiscard]] Summary summarize(std::span<const double> xs);

}  // namespace fullweb::stats
