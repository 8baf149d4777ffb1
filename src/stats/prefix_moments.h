// Compensated prefix moments: the shared compute layer behind the
// block/aggregation-based statistics (variance-time, R/S, FRS,
// aggregated_variances) and the online snapshot's KPSS demeaning.
//
// One O(n) pass builds Neumaier-compensated prefix sums of the
// anchor-centered series v_t = x_t - anchor (anchor = compensated mean) and
// of v_t^2; every block mean, block variance, partial sum and
// cumulative-deviation walk afterwards is an O(1) lookup. Centering first
// keeps block variances stable when the mean dominates the fluctuations
// (per-second counts with a large offset), which is exactly where naive
// one-pass prefix variance formulas collapse.
//
// Consumers treat a PrefixMoments as an immutable read-only view builder:
// it does NOT copy or alias the input after construction, all state lives
// in owned vectors, and concurrent reads are safe (no mutation).
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace fullweb::stats {

/// Mergeable first/second-moment state for shard-and-merge analyses: two
/// summaries built over disjoint sample sets combine (Chan et al.'s
/// pairwise update) into exactly the summary of their union — count, min
/// and max combine exactly; mean and the centered sum of squares combine
/// to within rounding, independent of merge order up to ulps. This is the
/// per-shard state a fleet aggregation carries instead of raw series.
struct MomentSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;  ///< sum of squared deviations from the mean
  double min = 0.0; ///< meaningful only when count > 0
  double max = 0.0;

  /// One-pass compensated summary of a sample span (tracks min/max).
  [[nodiscard]] static MomentSummary of(std::span<const double> xs);

  /// Fold another summary (over samples disjoint from ours) into this one.
  void merge(const MomentSummary& other) noexcept;

  /// Population variance (m2 / count); 0 when empty.
  [[nodiscard]] double variance() const noexcept {
    return count == 0 ? 0.0 : (m2 > 0.0 ? m2 / static_cast<double>(count) : 0.0);
  }
};

class PrefixMoments {
 public:
  PrefixMoments() = default;
  explicit PrefixMoments(std::span<const double> xs);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  /// Compensated mean of the whole series (0 when empty).
  [[nodiscard]] double anchor() const noexcept { return anchor_; }

  /// Sum of x_t over [i, j). Requires i <= j <= size().
  [[nodiscard]] double sum(std::size_t i, std::size_t j) const noexcept {
    assert(i <= j && j <= n_);
    return (cum_[j] - cum_[i]) +
           static_cast<double>(j - i) * anchor_;
  }
  /// Sum of the centered values v_t = x_t - anchor over [i, j).
  [[nodiscard]] double centered_sum(std::size_t i, std::size_t j) const noexcept {
    assert(i <= j && j <= n_);
    return cum_[j] - cum_[i];
  }
  /// Mean over [i, j). Requires i < j.
  [[nodiscard]] double block_mean(std::size_t i, std::size_t j) const noexcept {
    assert(i < j && j <= n_);
    return (cum_[j] - cum_[i]) / static_cast<double>(j - i) + anchor_;
  }
  /// Sum of squared deviations from the block's own mean over [i, j),
  /// clamped to >= 0 (cancellation can otherwise leave a tiny negative).
  [[nodiscard]] double block_sum_sq_dev(std::size_t i,
                                        std::size_t j) const noexcept {
    assert(i <= j && j <= n_);
    if (j == i) return 0.0;
    const double s = cum_[j] - cum_[i];
    const double s2 = cum2_[j] - cum2_[i];
    const double ssd = s2 - s * s / static_cast<double>(j - i);
    return ssd > 0.0 ? ssd : 0.0;
  }
  /// Population variance over [i, j) (divides by the block length).
  [[nodiscard]] double block_variance(std::size_t i,
                                      std::size_t j) const noexcept {
    if (j == i) return 0.0;
    return block_sum_sq_dev(i, j) / static_cast<double>(j - i);
  }

  /// Centered prefix sum C_k = sum_{t < k} v_t; C_0 = 0, C_n ~= 0. Equal to
  /// the KPSS partial sum S_k of the demeaned series.
  [[nodiscard]] double centered_prefix(std::size_t k) const noexcept {
    assert(k <= n_);
    return cum_[k];
  }
  /// The whole centered cumulative-sum array, length size() + 1 ([0] = 0):
  /// feeds minmax_prefix_walk.
  [[nodiscard]] std::span<const double> centered_cumsum() const noexcept {
    return cum_;
  }

  /// Population variance of the m-aggregated series (block means of
  /// consecutive size-m blocks, trailing partial block dropped) — the
  /// variance-time plot's per-level ingredient, O(n / m) per level.
  [[nodiscard]] double aggregated_variance(std::size_t m) const noexcept;

  /// The whole series collapsed to mergeable moment state in O(1): count,
  /// mean anchor() and m2 the compensated sum of (x_t - anchor)^2 clamped
  /// at 0, which are MomentSummary::of's bits. Min/max are not tracked by
  /// the prefix pass and are left at the mean (a value inside the sample
  /// range); callers needing real extremes fill them from the data.
  [[nodiscard]] MomentSummary summary() const noexcept {
    MomentSummary s;
    s.count = n_;
    if (n_ == 0) return s;
    s.mean = anchor_;
    s.m2 = cum2_[n_] > 0.0 ? cum2_[n_] : 0.0;
    s.min = s.mean;
    s.max = s.mean;
    return s;
  }

 private:
  std::size_t n_ = 0;
  double anchor_ = 0.0;
  std::vector<double> cum_;    ///< prefix sums of v_t, length n + 1
  std::vector<double> cum2_;   ///< prefix sums of v_t^2, length n + 1
};

}  // namespace fullweb::stats
