// Kwiatkowski-Phillips-Schmidt-Shin (KPSS) stationarity test.
//
// The paper (§4.1) tests the null hypothesis that the request/session
// per-second series is stationary against the unit-root alternative; all
// four servers reject stationarity on the raw series and accept it after
// trend + periodicity removal. Reference: Kwiatkowski, Phillips, Schmidt,
// Shin, "Testing the null hypothesis of stationarity against the
// alternative of a unit root", J. Econometrics 54 (1992).
#pragma once

#include <cstddef>
#include <span>

#include "support/result.h"

namespace fullweb::stats {

enum class KpssNull {
  kLevel,  ///< null: stationary around a constant level (eta_mu)
  kTrend,  ///< null: stationary around a deterministic linear trend (eta_tau)
};

struct KpssResult {
  double statistic = 0.0;     ///< eta = n^-2 sum S_t^2 / s^2(l)
  std::size_t lag = 0;        ///< Newey-West truncation lag actually used
  double p_value = 0.0;       ///< interpolated from the published table;
                              ///< clamped to [0.01, 0.10] outside its range
  double critical_5pct = 0.0; ///< 5% critical value for the chosen null
  KpssNull null_hypothesis = KpssNull::kLevel;

  /// True if stationarity is NOT rejected at the 5% level.
  [[nodiscard]] bool stationary_at_5pct() const noexcept {
    return statistic < critical_5pct;
  }
};

class PrefixMoments;

/// Run the KPSS test. `lag` < 0 selects the standard "long" bandwidth
/// l = floor(12 (n/100)^{1/4}); pass an explicit non-negative value to
/// override (values above n - 1 are clamped to it). Requires n >= 10. A
/// series holding NaN or +-inf is an `invalid_argument` error naming them;
/// a constant one is a `numeric` error (zero long-run variance).
[[nodiscard]] support::Result<KpssResult> kpss_test(
    std::span<const double> xs, KpssNull null_hypothesis = KpssNull::kLevel,
    long lag = -1);

/// The same test, bit for bit, reading the level null's demeaning from
/// `pm`, the prefix moments of xs (a caller that already holds them skips
/// two compensated passes). `invalid_argument` when pm.size() != xs.size().
[[nodiscard]] support::Result<KpssResult> kpss_test(
    std::span<const double> xs, const PrefixMoments& pm,
    KpssNull null_hypothesis = KpssNull::kLevel, long lag = -1);

}  // namespace fullweb::stats
