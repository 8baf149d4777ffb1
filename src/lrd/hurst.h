// Common types for Hurst-exponent estimation.
//
// The paper uses five estimators (§3.1): Variance-time and R/S from the
// time domain; Periodogram, Whittle, and Abry-Veitch from the
// frequency/wavelet domain. Whittle and Abry-Veitch also provide 95%
// confidence intervals. All estimators assume a stationary input — the
// whole point of §4.1 is that trend/periodicity must be removed first.
#pragma once

#include <optional>
#include <string>

#include "support/result.h"

namespace fullweb::lrd {

/// Which estimator produced an estimate (for table/figure labeling).
enum class HurstMethod {
  kVarianceTime,
  kRoverS,
  kPeriodogram,
  kWhittle,
  kAbryVeitch,
};

[[nodiscard]] std::string to_string(HurstMethod method);

struct HurstEstimate {
  HurstMethod method = HurstMethod::kVarianceTime;
  double h = 0.5;
  /// 95% confidence half-width, when the method provides one
  /// (Whittle, Abry-Veitch; regression-based methods expose the slope SE
  /// converted to H units, which is optimistic and flagged as such).
  std::optional<double> ci95_halfwidth;
  /// Auxiliary regression quality where applicable.
  std::optional<double> r_squared;

  [[nodiscard]] bool indicates_lrd() const noexcept { return h > 0.5 && h < 1.0; }
  [[nodiscard]] double ci_low() const noexcept {
    return ci95_halfwidth ? h - *ci95_halfwidth : h;
  }
  [[nodiscard]] double ci_high() const noexcept {
    return ci95_halfwidth ? h + *ci95_halfwidth : h;
  }
  /// Whether the 95% CI contains `true_h`. False when the method provides
  /// no CI — callers measuring coverage must check ci95_halfwidth first.
  [[nodiscard]] bool ci_covers(double true_h) const noexcept {
    return ci95_halfwidth && h - *ci95_halfwidth <= true_h &&
           true_h <= h + *ci95_halfwidth;
  }
};

}  // namespace fullweb::lrd
