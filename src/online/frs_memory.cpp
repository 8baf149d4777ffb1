#include "online/frs_memory.h"

#include <cmath>

namespace fullweb::online {

using support::Error;
using support::Result;

Result<FrsEstimate> frs_memory_from_counts(std::span<const double> counts,
                                           const FrsOptions& options) {
  return frs_memory_from_counts(stats::PrefixMoments(counts), options);
}

Result<FrsEstimate> frs_memory_from_counts(const stats::PrefixMoments& pm,
                                           const FrsOptions& options) {
  const std::size_t scales = options.scales < 2 ? 2 : options.scales;
  const std::size_t min_blocks =
      options.min_blocks < 2 ? 2 : options.min_blocks;

  // Every scale's block-sum variance is O(blocks) prefix lookups.
  // aggregated_variance gives the variance of block *means*; block sums
  // differ by the factor s^2, i.e. + 2 log2 s in log space — folded into
  // the regression ordinate below.
  FrsEstimate est;
  std::vector<double> xs, ys;
  std::size_t scale = 1;
  for (std::size_t j = 0; j < scales; ++j, scale <<= 1) {
    const std::size_t blocks = pm.size() / scale;
    if (blocks < min_blocks) break;
    const double mean_var = pm.aggregated_variance(scale);
    const double sum_var =
        mean_var * static_cast<double>(scale) * static_cast<double>(scale);
    if (!(sum_var > 0.0) || !std::isfinite(sum_var)) continue;
    est.points.push_back({scale, blocks, sum_var});
    xs.push_back(static_cast<double>(j));
    ys.push_back(std::log2(sum_var));
  }
  if (xs.size() < 3)
    return Error::insufficient_data(
        "frs_memory: fewer than 3 usable scales (stream too short or "
        "degenerate)");

  // OLS of log2 Var_j on j: slope = 2H.
  const double n = static_cast<double>(xs.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  const double det = n * sxx - sx * sx;
  if (!(det > 0.0))
    return Error::numeric("frs_memory: degenerate scale design");
  const double slope = (n * sxy - sx * sy) / det;
  const double ss_tot = syy - sy * sy / n;
  const double ss_res_part = sxy - sx * sy / n;
  est.r_squared =
      ss_tot > 0.0 ? (ss_res_part * ss_res_part) / (det / n * ss_tot) : 1.0;

  est.h = slope / 2.0;
  est.d = est.h - 0.5;
  est.alpha_implied = 3.0 - 2.0 * est.h;
  return est;
}

}  // namespace fullweb::online
