// Hill estimator of the tail index (paper eq. 5).
//
// For ordered statistics X_(1) >= X_(2) >= ... >= X_(n),
//   H_{k,n} = (1/k) Σ_{i=1..k} [log X_(i) - log X_(k+1)],
// and alpha_{k,n} = 1 / H_{k,n}. The Hill plot draws alpha_{k,n} against k;
// when it settles to a roughly constant level the data are consistent with
// a Pareto-type tail and that level estimates alpha. A plot that never
// stabilizes is the paper's "NS" verdict — strong evidence *against* the
// semiparametric Pareto model (Resnick 1997).
#pragma once

#include <span>
#include <vector>

#include "support/result.h"

namespace fullweb::tail {

struct HillOptions {
  /// Largest k as a fraction of n (the paper restricts Fig. 12 to the upper
  /// 14% tail; we default slightly wider).
  double max_tail_fraction = 0.15;
  std::size_t min_k = 10;  ///< ignore the noisy smallest-k region entirely
  /// Stabilization criterion: the coefficient of variation of alpha_{k,n}
  /// over the deep-tail region k in [k_max/3, k_max] must stay below this;
  /// drifting plots (non-Pareto data) exceed it and are reported NS.
  double stability_cv = 0.075;
};

struct HillPlot {
  std::vector<std::size_t> k;   ///< number of upper-order statistics used
  std::vector<double> alpha;    ///< alpha_{k,n}
};

/// Tie threshold on the Hill statistic H_{k,n}. A run of equal values at the
/// top of the sample makes H exactly zero in real arithmetic, but the
/// floating-point recursion can leave a residue of a few ulps — which would
/// invert to an astronomically large alpha instead of the NaN tie flag. Real
/// tail signal has H ~ 1/alpha >> this.
inline constexpr double kHillTieEpsilon = 1e-12;

struct HillEstimate {
  double alpha = 0.0;           ///< mean of alpha over the stable window
  std::size_t k_low = 0;        ///< stable window bounds (inclusive)
  std::size_t k_high = 0;
  bool stabilized = false;      ///< false => report as "NS"
};

/// Compute the Hill plot over k = 1 .. floor(max_tail_fraction * n).
/// Requires at least ~2/max_tail_fraction positive samples; non-positive
/// ones are ignored, and a sample holding NaN is invalid_argument.
[[nodiscard]] support::Result<HillPlot> hill_plot(std::span<const double> xs,
                                                  const HillOptions& options = {});

/// The plot kernel on prepared inputs: `top_desc` holds the largest order
/// statistics of a positive sample of total size `n_total`, sorted
/// descending (top_desc[0] = X_(1)). The plot only ever reads
/// k_max + 1 = floor(max_tail_fraction * n_total) + 1 order statistics, so
/// any producer that retains at least that prefix exactly — the batch path
/// after its selection, or online::TailSketch's top set — gets a plot
/// bit-identical to the full-sample one. When top_desc is shorter than
/// k_max + 1 the plot is truncated to the available prefix (still exact as
/// far as it goes); errors when even the truncated range is below the
/// minimum usable k, as it is for an empty top_desc.
[[nodiscard]] support::Result<HillPlot> hill_plot_from_top(
    std::span<const double> top_desc, std::size_t n_total,
    const HillOptions& options = {});

/// Scan the plot for the most stable window and report its mean alpha.
/// `stabilized == false` reproduces the paper's NS entries; an error is the
/// paper's NA (not enough data to compute the plot at all), or
/// invalid_argument for a sample holding NaN.
[[nodiscard]] support::Result<HillEstimate> hill_estimate(
    std::span<const double> xs, const HillOptions& options = {});

/// The stable-window scan on a prebuilt plot (shared by hill_estimate and
/// the online sketch path).
[[nodiscard]] support::Result<HillEstimate> hill_estimate_from_plot(
    const HillPlot& plot, const HillOptions& options = {});

}  // namespace fullweb::tail
