#include "timeseries/pyramid.h"

#include <algorithm>
#include <cassert>

#include "stats/descriptive.h"

namespace fullweb::timeseries {

AggregationPyramid::AggregationPyramid(std::span<const double> xs,
                                       std::span<const std::size_t> levels)
    : base_(xs) {
  levels_.assign(levels.begin(), levels.end());
  std::sort(levels_.begin(), levels_.end());
  levels_.erase(std::unique(levels_.begin(), levels_.end()), levels_.end());
  while (!levels_.empty() && levels_.front() == 0) levels_.erase(levels_.begin());
  storage_.resize(levels_.size());

  const std::size_t n = xs.size();
  // The route chosen per level depends only on (n, levels), so values are
  // reproducible for a fixed level set.
  for (std::size_t li = 0; li < levels_.size(); ++li) {
    const std::size_t m = levels_[li];
    if (m == 1) continue;  // level() aliases the input
    const std::size_t blocks = n / m;
    auto& out = storage_[li];
    out.resize(blocks);
    if (blocks == 0) continue;

    // Largest already-materialized proper divisor: cascading block means of
    // equal-sized sub-blocks reproduces aggregate(xs, m) exactly up to
    // summation order, in n/m' adds instead of n.
    std::size_t parent = 1;
    for (std::size_t pi = li; pi-- > 0;) {
      const std::size_t cand = levels_[pi];
      if (cand > 1 && m % cand == 0) {
        parent = cand;
        break;
      }
    }
    if (parent > 1) {
      const std::size_t pidx = static_cast<std::size_t>(
          std::lower_bound(levels_.begin(), levels_.end(), parent) -
          levels_.begin());
      const std::span<const double> src = storage_[pidx];
      stats::block_means(src.first(blocks * (m / parent)), m / parent, out);
    } else {
      // No divisor: aggregate the input itself, as timeseries::aggregate does.
      stats::block_means(xs.first(blocks * m), m, out);
    }
  }
}

std::span<const double> AggregationPyramid::level(std::size_t m) const noexcept {
  const auto it = std::lower_bound(levels_.begin(), levels_.end(), m);
  assert(it != levels_.end() && *it == m);
  if (it == levels_.end() || *it != m) return {};
  if (m == 1) return base_;
  return storage_[static_cast<std::size_t>(it - levels_.begin())];
}

}  // namespace fullweb::timeseries
