#include "tail/llcd.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/descriptive.h"
#include "stats/regression.h"
#include "support/workspace.h"

namespace fullweb::tail {

using support::Error;
using support::Result;

Result<LlcdPlot> llcd_plot(std::span<const double> xs) {
  if (xs.size() < 2) return Error::insufficient_data("llcd_plot: need n >= 2");
  const auto e = stats::ecdf(xs);
  LlcdPlot plot;
  plot.log10_x.reserve(e.x.size());
  plot.log10_ccdf.reserve(e.x.size());
  for (std::size_t i = 0; i + 1 < e.x.size(); ++i) {  // drop last (CCDF = 0)
    if (!(e.x[i] > 0.0)) continue;                    // log axis needs x > 0
    plot.log10_x.push_back(std::log10(e.x[i]));
    plot.log10_ccdf.push_back(std::log10(1.0 - e.f[i]));
  }
  if (plot.log10_x.size() < 2)
    return Error::insufficient_data("llcd_plot: fewer than 2 positive points");
  return plot;
}

namespace {

struct FitAttempt {
  LlcdFit fit;
  bool ok = false;
};

/// Regress over plot points with x >= theta; count raw tail samples too.
/// `lx`/`ly` are caller-owned scratch, reused across theta attempts so the
/// auto-theta scan does not reallocate per fraction.
FitAttempt fit_above(const LlcdPlot& plot, std::span<const double> xs,
                     double theta, std::size_t min_points,
                     std::vector<double>& lx, std::vector<double>& ly) {
  FitAttempt out;
  const double log_theta = std::log10(theta);
  lx.clear();
  ly.clear();
  for (std::size_t i = 0; i < plot.log10_x.size(); ++i) {
    if (plot.log10_x[i] >= log_theta) {
      lx.push_back(plot.log10_x[i]);
      ly.push_back(plot.log10_ccdf[i]);
    }
  }
  if (lx.size() < min_points) return out;
  const auto f = stats::ols(lx, ly);
  if (!(f.slope < 0.0)) return out;  // a rising CCDF tail is not Pareto-like
  out.fit.alpha = -f.slope;
  out.fit.stderr_alpha = f.stderr_slope;
  out.fit.r_squared = f.r_squared;
  out.fit.theta = theta;
  out.fit.points = lx.size();
  out.fit.tail_samples = static_cast<std::size_t>(
      std::count_if(xs.begin(), xs.end(), [&](double v) { return v >= theta; }));
  out.ok = true;
  return out;
}

}  // namespace

Result<LlcdFit> llcd_fit(std::span<const double> xs, const LlcdOptions& options) {
  auto plot_r = llcd_plot(xs);
  if (!plot_r) return plot_r.error();
  const LlcdPlot& plot = plot_r.value();

  std::vector<double> lx, ly;  // regression scratch shared by every attempt

  // Explicit theta wins; then an explicit tail fraction; else scan.
  if (!std::isnan(options.theta)) {
    const auto a = fit_above(plot, xs, options.theta, options.min_points, lx, ly);
    if (!a.ok)
      return Error::insufficient_data("llcd_fit: too few points above theta");
    return a.fit;
  }

  // Sorted positive samples (for quantile-based thetas) live in per-thread
  // scratch: Monte-Carlo validation replicates re-fit at a fixed sample
  // size, so the buffer is sorted in place with no per-replicate allocation.
  auto& positive = support::Workspace::for_thread().real(support::ws::kTailSorted);
  positive.clear();
  positive.reserve(xs.size());
  for (double v : xs)
    if (v > 0.0) positive.push_back(v);
  if (positive.size() < options.min_points)
    return Error::insufficient_data("llcd_fit: too few positive samples");
  std::sort(positive.begin(), positive.end());

  if (options.tail_fraction > 0.0) {
    const double q = std::clamp(1.0 - options.tail_fraction, 0.0, 1.0);
    const double theta = stats::quantile_sorted(positive, q);
    const auto a = fit_above(plot, xs, theta, options.min_points, lx, ly);
    if (!a.ok)
      return Error::insufficient_data(
          "llcd_fit: too few distinct points in requested tail");
    return a.fit;
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
    const auto a = fit_above(plot, xs, theta, options.min_points, lx, ly);
    if (a.ok && (!best.ok || a.fit.r_squared > best.fit.r_squared)) best = a;
  }
  if (!best.ok)
    return Error::insufficient_data(
        "llcd_fit: no tail fraction yields enough distinct points");
  return best.fit;
}

}  // namespace fullweb::tail
