// Dyadic aggregation cascade for the m-aggregation sweeps.
//
// The Fig. 7/8 validation sweeps evaluate estimators on aggregate(xs, m)
// for a grid of levels; materializing each level from the raw series costs
// O(n) per level. The pyramid instead derives each level from the largest
// already-materialized level m' dividing m (block means of block means of
// equal-sized sub-blocks compose exactly), in n/m' adds — the halving
// cascade 2m-from-m is the common case on dyadic grids. A level with no
// such divisor is aggregated from the input directly, and equals
// timeseries::aggregate(xs, m) bit for bit.
//
// A cascaded level is bit-stable for a fixed requested level set, but may
// differ in low-order bits from timeseries::aggregate(xs, m) and from the
// same m requested alongside a different level set, because the summation
// tree differs; see DESIGN.md §5.8 for the bit policy.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fullweb::timeseries {

class AggregationPyramid {
 public:
  /// Materialize every level in `levels` (deduplicated, sorted, zeros
  /// dropped; m == 1 aliases the input). The input span must stay alive for
  /// the pyramid's lifetime.
  explicit AggregationPyramid(std::span<const double> xs,
                              std::span<const std::size_t> levels);

  [[nodiscard]] std::size_t base_size() const noexcept { return base_.size(); }
  /// Sorted, deduplicated levels actually materialized.
  [[nodiscard]] const std::vector<std::size_t>& levels() const noexcept {
    return levels_;
  }
  /// The aggregated series at level m. m must be one of levels().
  [[nodiscard]] std::span<const double> level(std::size_t m) const noexcept;

 private:
  std::span<const double> base_;
  std::vector<std::size_t> levels_;
  std::vector<std::vector<double>> storage_;  ///< parallel to levels_
};

}  // namespace fullweb::timeseries
