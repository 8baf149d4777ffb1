#include "tail/curvature.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <vector>

#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/regression.h"
#include "support/executor.h"
#include "tail/llcd.h"

namespace fullweb::tail {

using support::Error;
using support::Result;

Result<double> llcd_curvature(std::span<const double> xs, double tail_fraction) {
  auto plot_r = llcd_plot(xs);
  if (!plot_r) return plot_r.error();
  const LlcdPlot& plot = plot_r.value();

  // Keep the tail: points above the (1 - tail_fraction) quantile of log10 x.
  // llcd_plot emits log10_x in ascending order, so no copy or sort is needed.
  const double cut = stats::quantile_sorted(
      plot.log10_x, std::clamp(1.0 - tail_fraction, 0.0, 1.0));

  std::vector<double> lx, ly;
  for (std::size_t i = 0; i < plot.log10_x.size(); ++i) {
    if (plot.log10_x[i] >= cut) {
      lx.push_back(plot.log10_x[i]);
      ly.push_back(plot.log10_ccdf[i]);
    }
  }
  if (lx.size() < 10)
    return Error::insufficient_data("llcd_curvature: fewer than 10 tail points");

  const auto fit = stats::quadratic_fit(lx, ly);
  if (fit.n < 10) return Error::numeric("llcd_curvature: quadratic fit failed");
  return fit.c2;
}

Result<CurvatureResult> curvature_test(std::span<const double> xs,
                                       support::Rng& rng,
                                       const CurvatureOptions& options) {
  std::vector<double> positive;
  positive.reserve(xs.size());
  for (double v : xs)
    if (v > 0.0) positive.push_back(v);
  const std::size_t n = positive.size();
  if (n < 50) return Error::insufficient_data("curvature_test: need n >= 50");

  auto curv_r = llcd_curvature(positive, options.tail_fraction);
  if (!curv_r) return curv_r.error();

  CurvatureResult result;
  result.curvature = curv_r.value();
  result.replicates = options.replicates;

  // Fit the null model and prepare a sampler producing samples of size n.
  std::vector<double> sorted = positive;
  std::sort(sorted.begin(), sorted.end());

  std::function<double(support::Rng&)> draw;
  if (options.model == TailModel::kPareto) {
    // Pareto fitted above the tail cutoff; the simulated sample mixes the
    // empirical body below the cutoff with Pareto draws above it, mirroring
    // Downey's semiparametric setup (the test statistic only looks at the
    // tail anyway).
    const double cutoff = stats::quantile_sorted(
        sorted, std::clamp(1.0 - options.tail_fraction, 0.0, 1.0));
    double alpha;
    if (options.alpha_override) {
      alpha = *options.alpha_override;
      if (!(alpha > 0.0))
        return Error::invalid_argument("curvature_test: alpha_override <= 0");
    } else {
      auto fit = stats::Pareto::fit_mle(positive, std::max(cutoff, 1e-12));
      if (!fit) return fit.error();
      alpha = fit.value().alpha();
    }
    result.param1 = alpha;
    result.param2 = std::max(cutoff, 1e-12);
    const stats::Pareto tail_model(alpha, result.param2);
    const double p_tail =
        static_cast<double>(std::count_if(positive.begin(), positive.end(),
                                          [&](double v) { return v >= result.param2; })) /
        static_cast<double>(n);
    draw = [tail_model, p_tail, &sorted](support::Rng& r) {
      if (r.uniform() < p_tail) return tail_model.sample(r);
      // Bootstrap from the empirical body (below the cutoff).
      const auto idx = r.below(sorted.size());
      return sorted[idx];
    };
  } else {
    auto fit = stats::Lognormal::fit_mle(positive);
    if (!fit) return fit.error();
    result.param1 = fit.value().mu();
    result.param2 = fit.value().sigma();
    const stats::Lognormal model = fit.value();
    draw = [model](support::Rng& r) { return model.sample(r); };
  }

  // Monte-Carlo reference distribution of the curvature statistic. One
  // level -1 micro-stream per replicate — subdividing the caller's leaf in
  // place — so replicate `rep` draws the same synthetic sample no matter how
  // replicates are chunked across threads: the p-value is bit-identical at
  // any thread count. grain = 1 because replicates are few (hundreds) and
  // each one is a full quadratic fit, so one task per replicate lets work
  // stealing balance the unevenness.
  support::RngSplitter streams(rng, support::RngSplitter::kMinLevel);
  std::vector<support::Rng> replicate_rngs;
  replicate_rngs.reserve(options.replicates);
  for (std::size_t rep = 0; rep < options.replicates; ++rep)
    replicate_rngs.push_back(streams.stream(rep));

  std::vector<std::optional<double>> curvatures(options.replicates);
  support::Executor& ex = support::Executor::resolve(options.executor);
  ex.parallel_for(
      0, options.replicates,
      [&](std::size_t rep) {
        support::Rng& replicate_rng = replicate_rngs[rep];
        std::vector<double> sample(n);
        for (std::size_t i = 0; i < n; ++i) sample[i] = draw(replicate_rng);
        if (auto c = llcd_curvature(sample, options.tail_fraction); c.ok())
          curvatures[rep] = c.value();
      },
      /*grain=*/1);

  std::size_t less_eq = 0;
  std::size_t greater_eq = 0;
  std::size_t usable = 0;
  for (const auto& c : curvatures) {
    if (!c.has_value()) continue;
    ++usable;
    if (*c <= result.curvature) ++less_eq;
    if (*c >= result.curvature) ++greater_eq;
  }
  if (usable < options.replicates / 2)
    return Error::numeric("curvature_test: too many degenerate replicates");

  // Two-sided Monte-Carlo p-value with the standard +1 correction.
  const double p_lo = static_cast<double>(less_eq + 1) /
                      static_cast<double>(usable + 1);
  const double p_hi = static_cast<double>(greater_eq + 1) /
                      static_cast<double>(usable + 1);
  result.p_value = std::min(1.0, 2.0 * std::min(p_lo, p_hi));
  result.rejected_at_5pct = result.p_value < 0.05;
  return result;
}

}  // namespace fullweb::tail
