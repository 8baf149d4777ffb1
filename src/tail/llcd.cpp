#include "tail/llcd.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/descriptive.h"
#include "stats/regression.h"

namespace fullweb::tail {

using support::Error;
using support::Result;

namespace {

/// The plot's points from an ascending copy of the sample: ties collapse to
/// their last occurrence, whose rank r gives F = (r + 1) / n, and the
/// non-positive values and the largest value (CCDF 0) drop out.
Result<LlcdPlot> plot_from_sorted(std::span<const double> sorted) {
  const auto n = static_cast<double>(sorted.size());
  LlcdPlot plot;
  plot.log10_x.reserve(sorted.size());
  plot.log10_ccdf.reserve(sorted.size());
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    if (sorted[i + 1] == sorted[i] || !(sorted[i] > 0.0)) continue;
    plot.log10_x.push_back(std::log10(sorted[i]));
    plot.log10_ccdf.push_back(
        std::log10(1.0 - static_cast<double>(i + 1) / n));
  }
  if (plot.log10_x.size() < 2)
    return Error::insufficient_data("llcd_plot: fewer than 2 positive points");
  return plot;
}

/// An ascending copy of a sample the plot can rank.
Result<std::vector<double>> sorted_copy(std::span<const double> xs) {
  // A NaN has no rank: sorted in, it would shift every CCDF value.
  if (std::any_of(xs.begin(), xs.end(), [](double v) { return std::isnan(v); }))
    return Error::invalid_argument("llcd_plot: sample holds NaN");
  if (xs.size() < 2) return Error::insufficient_data("llcd_plot: need n >= 2");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

struct FitAttempt {
  LlcdFit fit;
  bool ok = false;
};

/// Regress over the plot points with x >= theta, read in place: log10_x is
/// ascending, so those points are the suffix that starts at the first
/// log10 x >= log10 theta. A negative theta has a NaN logarithm that no
/// point reaches, so its suffix is empty. Leaves tail_samples to the
/// caller.
FitAttempt fit_above(const LlcdPlot& plot, double theta,
                     std::size_t min_points) {
  FitAttempt out;
  const double log_theta = std::log10(theta);
  const auto first = static_cast<std::size_t>(
      std::partition_point(plot.log10_x.begin(), plot.log10_x.end(),
                           [&](double lx) { return !(lx >= log_theta); }) -
      plot.log10_x.begin());
  const auto lx = std::span<const double>(plot.log10_x).subspan(first);
  const auto ly = std::span<const double>(plot.log10_ccdf).subspan(first);
  if (lx.size() < min_points) return out;
  const auto f = stats::ols(lx, ly);
  if (!(f.slope < 0.0)) return out;  // a rising CCDF tail is not Pareto-like
  out.fit.alpha = -f.slope;
  out.fit.stderr_alpha = f.stderr_slope;
  out.fit.r_squared = f.r_squared;
  out.fit.theta = theta;
  out.fit.points = lx.size();
  out.ok = true;
  return out;
}

/// The chosen fit with its raw tail count: every sample >= theta, a suffix
/// of the ascending sample. Counted for the chosen theta only, so the
/// auto-theta scan does not count per try. An explicit theta may be <= 0,
/// where non-positive samples count too.
LlcdFit with_tail_samples(LlcdFit fit, std::span<const double> sorted) {
  const auto first = std::partition_point(
      sorted.begin(), sorted.end(), [&](double v) { return !(v >= fit.theta); });
  fit.tail_samples = static_cast<std::size_t>(sorted.end() - first);
  return fit;
}

}  // namespace

Result<LlcdPlot> llcd_plot(std::span<const double> xs) {
  auto sorted = sorted_copy(xs);
  if (!sorted) return sorted.error();
  return plot_from_sorted(sorted.value());
}

Result<LlcdFit> llcd_fit(std::span<const double> xs, const LlcdOptions& options) {
  auto sorted_r = sorted_copy(xs);
  if (!sorted_r) return sorted_r.error();
  const std::span<const double> sorted = sorted_r.value();
  auto plot_r = plot_from_sorted(sorted);
  if (!plot_r) return plot_r.error();
  const LlcdPlot& plot = plot_r.value();

  // Explicit theta wins; then an explicit tail fraction; else scan.
  if (!std::isnan(options.theta)) {
    const auto a = fit_above(plot, options.theta, options.min_points);
    if (!a.ok)
      return Error::insufficient_data("llcd_fit: too few points above theta");
    return with_tail_samples(a.fit, sorted);
  }

  // The positive samples, for the quantile-based thetas: the suffix of the
  // ascending sample.
  const auto positive = sorted.subspan(static_cast<std::size_t>(
      std::partition_point(sorted.begin(), sorted.end(),
                           [](double v) { return !(v > 0.0); }) -
      sorted.begin()));
  if (positive.size() < options.min_points)
    return Error::insufficient_data("llcd_fit: too few positive samples");

  if (options.tail_fraction > 0.0) {
    const double q = std::clamp(1.0 - options.tail_fraction, 0.0, 1.0);
    const double theta = stats::quantile_sorted(positive, q);
    const auto a = fit_above(plot, theta, options.min_points);
    if (!a.ok)
      return Error::insufficient_data(
          "llcd_fit: too few distinct points in requested tail");
    return with_tail_samples(a.fit, sorted);
  }

  // Auto-theta: scan tail fractions from half the sample down to 1%, keep
  // the best R² (mimicking the paper's "select theta above which the plot
  // appears linear").
  static constexpr double kFractions[] = {0.50, 0.40, 0.30, 0.25, 0.20,
                                          0.15, 0.10, 0.07, 0.05, 0.03,
                                          0.02, 0.01};
  FitAttempt best;
  for (double frac : kFractions) {
    const double theta = stats::quantile_sorted(positive, 1.0 - frac);
    const auto a = fit_above(plot, theta, options.min_points);
    if (a.ok && (!best.ok || a.fit.r_squared > best.fit.r_squared)) best = a;
  }
  if (!best.ok)
    return Error::insufficient_data(
        "llcd_fit: no tail fraction yields enough distinct points");
  return with_tail_samples(best.fit, sorted);
}

}  // namespace fullweb::tail
