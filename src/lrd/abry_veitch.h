// Abry-Veitch wavelet Hurst estimator.
//
// The detail-coefficient energy of an LRD process scales across octaves as
//   mu_j = (1/n_j) Σ_k d_{j,k}^2  ~  C 2^{j (2H - 1)},
// so a weighted linear regression of the bias-corrected log2(mu_j) on
// octave j gives slope gamma and H = (gamma + 1)/2. The bias correction
// g(n_j) = psi(n_j/2)/ln 2 - log2(n_j/2) and the per-octave variance
// zeta(2, n_j/2)/ln^2 2 (trigamma) follow Veitch & Abry (1999); Daubechies-4
// wavelets (2 vanishing moments) make the estimator blind to linear trends.
// Reference: Abry & Veitch, IEEE Trans. IT 44(1), 1998.
#pragma once

#include <span>

#include "lrd/hurst.h"
#include "support/result.h"
#include "timeseries/wavelet.h"

namespace fullweb::lrd {

struct AbryVeitchOptions {
  timeseries::WaveletKind wavelet = timeseries::WaveletKind::kD4;
  std::size_t j1 = 2;             ///< finest octave in the regression
  std::size_t j2 = 0;             ///< coarsest octave; 0 = deepest with
                                  ///< at least `min_coeffs` coefficients
  std::size_t min_coeffs = 8;     ///< per-octave coefficient floor
};

struct AbryVeitchResult {
  HurstEstimate estimate;
  std::vector<std::size_t> octaves;     ///< j values used in the regression
  std::vector<double> log2_energy;      ///< bias-corrected y_j
  std::vector<double> weight;           ///< regression weights 1/sigma_j^2
};

[[nodiscard]] support::Result<AbryVeitchResult> abry_veitch_hurst(
    std::span<const double> xs, const AbryVeitchOptions& options = {});

}  // namespace fullweb::lrd
