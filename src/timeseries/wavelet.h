// Discrete wavelet transform (Daubechies-4) for the Abry-Veitch estimator.
//
// The pyramid algorithm convolves the signal with the low-pass/high-pass
// filter pair and downsamples by two, octave by octave; the detail
// coefficients d_{j,k} at octave j carry the energy the Abry-Veitch
// estimator regresses against scale. D4's 4 taps give 2 vanishing moments,
// so the details are blind to the linear trends the paper removes.
// Periodic boundary handling.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fullweb::timeseries {

/// Per-octave detail coefficients d_{j,k}, j = 1 (finest) .. J.
struct WaveletDecomposition {
  std::vector<std::vector<double>> details;  ///< details[j-1] = octave j
  std::vector<double> final_approximation;   ///< coarsest smooth remainder

  [[nodiscard]] std::size_t octaves() const noexcept { return details.size(); }
};

/// Decompose down to octaves whose detail vector still has at least
/// `min_coeffs` coefficients (default 4, so variances are estimable).
/// The input is truncated to an even length per level as needed.
[[nodiscard]] WaveletDecomposition dwt(std::span<const double> xs,
                                       std::size_t min_coeffs = 4);

}  // namespace fullweb::timeseries
