// LLCD (log-log complementary distribution) tail-index estimation.
//
// §3.2 of the paper: plot the empirical CCDF on log-log axes; for a
// heavy-tailed (Pareto-type) distribution the plot is linear above some
// cutoff theta with slope -alpha. The slope is estimated by least-squares
// regression over the points above theta; the paper reports alpha_LLCD, its
// standard error, and the regression R² (Tables 2-4, Figures 11 and 13).
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "support/result.h"

namespace fullweb::tail {

struct LlcdOptions {
  /// Fraction of the sample (by count) treated as the tail when theta is
  /// chosen automatically; <= 0 turns on the R²-scan auto-selector.
  double tail_fraction = 0.0;
  /// Explicit cutoff: fit only points with x >= theta. NaN = not set.
  double theta = std::numeric_limits<double>::quiet_NaN();
  /// Minimum distinct points in the regression.
  std::size_t min_points = 10;
};

struct LlcdFit {
  double alpha = 0.0;          ///< tail index (= -slope)
  double stderr_alpha = 0.0;   ///< regression SE of the slope
  double r_squared = 0.0;
  double theta = 0.0;          ///< cutoff actually used
  std::size_t points = 0;      ///< distinct CCDF points in the regression
  std::size_t tail_samples = 0;///< raw samples above theta

  /// Heavy tail in the infinite-variance sense (1 < alpha < 2 => finite
  /// mean, infinite variance; alpha <= 1 => infinite mean).
  [[nodiscard]] bool infinite_variance() const noexcept { return alpha < 2.0; }
  [[nodiscard]] bool infinite_mean() const noexcept { return alpha < 1.0; }
};

/// Fit the LLCD tail slope. Errors when too few distinct tail points exist
/// (the paper's "NA" cells for NASA-Pub2 Low), and with invalid_argument
/// for a sample holding NaN.
[[nodiscard]] support::Result<LlcdFit> llcd_fit(std::span<const double> xs,
                                                const LlcdOptions& options = {});

/// The LLCD plot itself: (log10 x, log10 P[X > x]) over distinct positive
/// sample values, excluding the final zero-CCDF point — the data of Figs 11
/// & 13. invalid_argument for a sample holding NaN.
struct LlcdPlot {
  std::vector<double> log10_x;  ///< in ascending order of x
  std::vector<double> log10_ccdf;
};
[[nodiscard]] support::Result<LlcdPlot> llcd_plot(std::span<const double> xs);

}  // namespace fullweb::tail
