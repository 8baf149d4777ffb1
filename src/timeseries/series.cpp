#include "timeseries/series.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "stats/descriptive.h"
#include "stats/prefix_moments.h"

namespace fullweb::timeseries {

std::vector<double> counts_per_bin(std::span<const double> event_times, double t0,
                                   double t1, double bin_seconds) {
  if (!(bin_seconds > 0.0) || !std::isfinite(bin_seconds) ||
      !std::isfinite(t0) || !std::isfinite(t1) || !(t1 > t0))
    return {};
  const double bins = std::ceil((t1 - t0) / bin_seconds);
  if (!(bins < 0x1p63)) return {};  // not a vector length
  const auto nbins = static_cast<std::size_t>(bins);
  std::vector<double> counts(nbins, 0.0);
  for (double t : event_times) {
    if (!(t >= t0 && t < t1)) continue;  // also skips NaN
    auto idx = static_cast<std::size_t>((t - t0) / bin_seconds);
    if (idx >= nbins) idx = nbins - 1;  // guard FP edge at t ~= t1
    counts[idx] += 1.0;
  }
  return counts;
}

std::vector<double> aggregate(std::span<const double> xs, std::size_t m) {
  if (m == 0) return {};
  if (m == 1) return {xs.begin(), xs.end()};
  const std::size_t blocks = xs.size() / m;
  std::vector<double> out(blocks);
  stats::block_means(xs.first(blocks * m), m, out);
  return out;
}

std::vector<double> aggregated_variances(std::span<const double> xs,
                                         std::span<const std::size_t> levels) {
  // One O(n) prefix-moment build; each level is then O(n/m) block-mean
  // lookups instead of a fresh O(n) aggregate + variance pass.
  const stats::PrefixMoments pm(xs);
  std::vector<double> vars;
  vars.reserve(levels.size());
  for (std::size_t m : levels) vars.push_back(pm.aggregated_variance(m));
  return vars;
}

std::vector<std::size_t> log_spaced_levels(std::size_t n, std::size_t count,
                                           std::size_t min_blocks) {
  std::set<std::size_t> levels;
  if (n < 2 * min_blocks) {
    levels.insert(1);
    return {levels.begin(), levels.end()};
  }
  const double max_m = static_cast<double>(n) / static_cast<double>(min_blocks);
  const double log_max = std::log(max_m);
  for (std::size_t i = 0; i < count; ++i) {
    const double frac =
        count > 1 ? static_cast<double>(i) / static_cast<double>(count - 1) : 0.0;
    const auto m = static_cast<std::size_t>(std::lround(std::exp(frac * log_max)));
    levels.insert(std::max<std::size_t>(1, m));
  }
  return {levels.begin(), levels.end()};
}

}  // namespace fullweb::timeseries
