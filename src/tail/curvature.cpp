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

namespace fullweb::tail {

using support::Error;
using support::Result;

namespace {

/// log10(1 - r/n) for every rank r < n: the LLCD plot's y value at a
/// distinct value whose last occurrence has rank r, by llcd_plot's own
/// expression (F = r/n). The same for every sample of size n.
std::vector<double> log10_ccdf_by_rank(std::size_t n) {
  std::vector<double> out(n);
  const auto nd = static_cast<double>(n);
  for (std::size_t r = 0; r < n; ++r)
    out[r] = std::log10(1.0 - static_cast<double>(r) / nd);
  return out;
}

/// The curvature statistic of an ascending sample: the quadratic fit over
/// the llcd_plot points whose log10 x reaches the (1 - tail_fraction)
/// quantile of the plot's log10 x, equal bit for bit, without building
/// the plot. Ties collapse to (value, rank of the last occurrence);
/// non-positive values and the largest value drop out, as in llcd_plot.
/// log10 x is taken at the two points the quantile reads and then from
/// the largest value down while it reaches the cut: log10 is monotone, so
/// those points are a suffix. `log10_ccdf` is log10_ccdf_by_rank(n).
Result<double> sorted_curvature(std::span<const double> sorted,
                                double tail_fraction,
                                std::span<const double> log10_ccdf) {
  const std::size_t n = sorted.size();
  if (n < 2) return Error::insufficient_data("llcd_plot: need n >= 2");
  std::vector<double> xs(n);
  std::vector<double> ly(n);
  std::size_t m = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!(sorted[i] > 0.0) || sorted[i + 1] == sorted[i]) continue;
    xs[m] = sorted[i];
    ly[m++] = log10_ccdf[i + 1];
  }
  if (m < 2)
    return Error::insufficient_data("llcd_plot: fewer than 2 positive points");

  // stats::quantile_sorted over log10 xs, evaluated at its two points only.
  const double q = std::clamp(1.0 - tail_fraction, 0.0, 1.0);
  const double idx = q * static_cast<double>(m - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, m - 1);
  const double frac = idx - static_cast<double>(lo);
  const double log_lo = std::log10(xs[lo]);
  const double cut = log_lo + frac * (std::log10(xs[hi]) - log_lo);

  // The tail's x values become their logs in place.
  std::size_t first = m;
  while (first > 0) {
    const double l = std::log10(xs[first - 1]);
    if (!(l >= cut)) break;
    xs[--first] = l;
  }
  if (m - first < 10)
    return Error::insufficient_data("llcd_curvature: fewer than 10 tail points");

  const auto fit =
      stats::quadratic_fit(std::span<const double>(xs).subspan(first, m - first),
                           std::span<const double>(ly).subspan(first, m - first));
  if (fit.n < 10) return Error::numeric("llcd_curvature: quadratic fit failed");
  return fit.c2;
}

}  // namespace

Result<double> llcd_curvature(std::span<const double> xs, double tail_fraction) {
  if (std::isnan(tail_fraction))
    return Error::invalid_argument("llcd_curvature: tail_fraction is NaN");
  std::vector<double> sorted(xs.begin(), xs.end());
  stats::radix_sort(sorted);
  // The radix sort puts every NaN at one end (+NaN above +inf, -NaN below
  // -inf), where it would shift every rank.
  if (!sorted.empty() && (std::isnan(sorted.front()) || std::isnan(sorted.back())))
    return Error::invalid_argument("llcd_curvature: sample holds NaN");
  return sorted_curvature(sorted, tail_fraction,
                          log10_ccdf_by_rank(sorted.size()));
}

Result<CurvatureResult> curvature_test(std::span<const double> xs,
                                       support::Rng& rng,
                                       const CurvatureOptions& options) {
  if (std::isnan(options.tail_fraction))
    return Error::invalid_argument("curvature_test: tail_fraction is NaN");
  if (options.replicates == 0)
    return Error::invalid_argument("curvature_test: need replicates >= 1");
  // Non-positive values cannot be Pareto or lognormal and drop out; a NaN
  // is no value at all, so the sample is rejected rather than shrunk.
  std::vector<double> positive;
  positive.reserve(xs.size());
  for (double v : xs) {
    if (v > 0.0)
      positive.push_back(v);
    else if (std::isnan(v))
      return Error::invalid_argument("curvature_test: sample holds NaN");
  }
  const std::size_t n = positive.size();
  if (n < 50) return Error::insufficient_data("curvature_test: need n >= 50");

  // One sorted copy serves the observed statistic and the Pareto null's
  // body; the fits below read `positive` in input order. Every replicate
  // has n values too, so all share one table of CCDF logs.
  std::vector<double> sorted = positive;
  stats::radix_sort(sorted);
  const std::vector<double> log10_ccdf = log10_ccdf_by_rank(n);
  auto curv_r = sorted_curvature(sorted, options.tail_fraction, log10_ccdf);
  if (!curv_r) return curv_r.error();

  CurvatureResult result;
  result.curvature = curv_r.value();
  result.replicates = options.replicates;

  // Fit the null model and prepare a sampler producing samples of size n.
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
        stats::radix_sort(sample);
        if (auto c = sorted_curvature(sample, options.tail_fraction, log10_ccdf);
            c.ok())
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
