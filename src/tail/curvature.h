// Downey's Monte-Carlo curvature test for distinguishing Pareto from
// lognormal tails.
//
// A Pareto CCDF is a straight line on log-log axes; a lognormal CCDF bends
// downward ever more steeply in the extreme tail. The test (Downey, IMW
// 2001, adapted per §5.2.1 of the paper):
//   1. Fit the candidate model (Pareto above a cutoff, or lognormal) to the
//      sample.
//   2. Measure the curvature statistic: the quadratic coefficient of a
//      parabola fitted to the log-log CCDF of the tail.
//   3. Draw `replicates` synthetic samples of the same size from the fitted
//      model, compute each one's curvature, and report the two-sided
//      Monte-Carlo p-value of the empirical curvature.
// The paper found the Pareto p-value is sensitive to the plugged-in alpha
// and to the random replicate sample — we expose both knobs (`alpha_override`
// and the caller-supplied Rng) so benches can reproduce that observation.
//
// The Monte-Carlo replicates fan out on the configured executor: replicate
// b always draws from micro-stream b of a level -1 RngSplitter over the
// caller's generator, so the p-value is bit-identical at any thread count.
// The split CONSUMES the generator (see support/rng.h): callers must hand
// curvature_test a dedicated leaf stream and never draw from it afterwards.
#pragma once

#include <optional>
#include <span>

#include "support/result.h"
#include "support/rng.h"

namespace fullweb::support {
class Executor;
}

namespace fullweb::tail {

enum class TailModel { kPareto, kLognormal };

struct CurvatureOptions {
  TailModel model = TailModel::kPareto;
  std::size_t replicates = 199;   ///< Monte-Carlo replicates
  /// Fraction of the sample treated as the tail for both the Pareto fit
  /// cutoff and the curvature measurement window.
  double tail_fraction = 0.5;
  /// Use this alpha instead of the MLE (Pareto only) — the sensitivity knob.
  std::optional<double> alpha_override;
  /// Task executor for the replicate fan-out (null = the global pool).
  support::Executor* executor = nullptr;
};

struct CurvatureResult {
  double curvature = 0.0;        ///< empirical quadratic coefficient
  double p_value = 1.0;          ///< two-sided Monte-Carlo p
  bool rejected_at_5pct = false;
  // Fitted null-model parameters actually used for simulation:
  double param1 = 0.0;           ///< Pareto alpha, or lognormal mu
  double param2 = 0.0;           ///< Pareto k (cutoff), or lognormal sigma
  std::size_t replicates = 0;
};

/// Run the test. Errors if the sample is too small (< ~50 tail points) or
/// the null model cannot be fitted, and with invalid_argument for a sample
/// holding NaN, a NaN tail_fraction or zero replicates (no simulation, so
/// no p-value).
[[nodiscard]] support::Result<CurvatureResult> curvature_test(
    std::span<const double> xs, support::Rng& rng,
    const CurvatureOptions& options = {});

/// The curvature statistic alone (exposed for tests): the quadratic
/// coefficient over the llcd_plot points at or above the (1 -
/// tail_fraction) quantile of their log10 x. invalid_argument for a NaN
/// tail_fraction or a sample holding NaN.
[[nodiscard]] support::Result<double> llcd_curvature(std::span<const double> xs,
                                                     double tail_fraction);

}  // namespace fullweb::tail
