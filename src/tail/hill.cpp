#include "tail/hill.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

namespace fullweb::tail {

using support::Error;
using support::Result;

Result<HillPlot> hill_plot_from_top(std::span<const double> top_desc,
                                    std::size_t n_total,
                                    const HillOptions& options) {
  auto k_max = static_cast<std::size_t>(
      std::floor(options.max_tail_fraction * static_cast<double>(n_total)));
  if (n_total > 0 && k_max > n_total - 1) k_max = n_total - 1;  // needs X_(k+1)
  // A producer that retained fewer order statistics than the fraction asks
  // for (a sketch whose top set is smaller than the deep tail) truncates the
  // plot to its exact prefix rather than substituting sampled values.
  if (top_desc.size() > 0 && k_max > top_desc.size() - 1)
    k_max = top_desc.size() - 1;
  if (k_max < std::max<std::size_t>(options.min_k, 2) + 1)
    return Error::insufficient_data("hill_plot: sample too small for tail fraction");

  HillPlot plot;
  plot.k.reserve(k_max);
  plot.alpha.reserve(k_max);
  double sum_log = 0.0;  // running sum of log X_(1..k)
  for (std::size_t k = 1; k <= k_max; ++k) {
    sum_log += std::log(top_desc[k - 1]);
    const double h = sum_log / static_cast<double>(k) - std::log(top_desc[k]);
    if (!(h > kHillTieEpsilon)) {
      // Ties at the top of the sample: H = 0 means alpha undefined here.
      plot.k.push_back(k);
      plot.alpha.push_back(std::numeric_limits<double>::quiet_NaN());
      continue;
    }
    plot.k.push_back(k);
    plot.alpha.push_back(1.0 / h);
  }
  return plot;
}

Result<HillPlot> hill_plot(std::span<const double> xs, const HillOptions& options) {
  std::vector<double> sorted;
  sorted.reserve(xs.size());
  for (double v : xs)
    if (v > 0.0) sorted.push_back(v);
  const std::size_t n = sorted.size();
  auto k_max = static_cast<std::size_t>(
      std::floor(options.max_tail_fraction * static_cast<double>(n)));
  if (n > 0 && k_max > n - 1) k_max = n - 1;  // alpha_k needs X_(k+1)
  if (k_max < std::max<std::size_t>(options.min_k, 2) + 1)
    return Error::insufficient_data("hill_plot: sample too small for tail fraction");

  // The plot only reads the k_max + 1 largest order statistics, so select
  // them first and sort just that prefix (descending: sorted[0] = X_(1),
  // the largest) instead of sorting all n samples. Equal values make the
  // selection boundary arbitrary among ties, but the prefix *values* — and
  // hence the plot — match the full sort exactly.
  const std::size_t top = k_max + 1;
  if (top < n)
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(top - 1),
                     sorted.end(), std::greater<>());
  std::sort(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(top),
            std::greater<>());

  return hill_plot_from_top(
      std::span<const double>(sorted.data(), top), n, options);
}

Result<HillEstimate> hill_estimate(std::span<const double> xs,
                                   const HillOptions& options) {
  auto plot_r = hill_plot(xs, options);
  if (!plot_r) return plot_r.error();
  return hill_estimate_from_plot(plot_r.value(), options);
}

Result<HillEstimate> hill_estimate_from_plot(const HillPlot& plot,
                                             const HillOptions& options) {
  // "Settling to a constant" means the *deep-tail* region — the upper part
  // of the k range, where most tail points are included — is flat. A sliding
  // minimum-CV window would be fooled by slowly drifting plots (lognormal
  // data drifts monotonically but is locally smooth), so we measure the
  // coefficient of variation over the whole region k in [k_max/3, k_max].
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < plot.k.size(); ++i) {
    if (plot.k[i] >= options.min_k && std::isfinite(plot.alpha[i]))
      idx.push_back(i);
  }
  if (idx.size() < 10)
    return Error::insufficient_data("hill_estimate: too few usable k values");

  const std::size_t k_max = plot.k[idx.back()];
  const std::size_t k_start = std::max(options.min_k, k_max / 3);
  double sum = 0.0, sum2 = 0.0;
  std::size_t count = 0;
  std::size_t k_low = k_max;
  for (std::size_t i : idx) {
    if (plot.k[i] < k_start) continue;
    sum += plot.alpha[i];
    sum2 += plot.alpha[i] * plot.alpha[i];
    k_low = std::min(k_low, plot.k[i]);
    ++count;
  }
  if (count < 5)
    return Error::insufficient_data("hill_estimate: stable region too small");

  const double m = sum / static_cast<double>(count);
  if (!(m > 0.0)) return Error::numeric("hill_estimate: degenerate Hill plot");
  const double var = std::max(0.0, sum2 / static_cast<double>(count) - m * m);
  const double cv = std::sqrt(var) / m;

  HillEstimate est;
  est.alpha = m;
  est.k_low = k_low;
  est.k_high = k_max;
  est.stabilized = cv <= options.stability_cv;
  return est;
}

}  // namespace fullweb::tail
