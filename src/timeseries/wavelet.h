// Discrete wavelet transform (Daubechies) for the Abry-Veitch estimator.
//
// The pyramid algorithm convolves the signal with the low-pass/high-pass
// filter pair and downsamples by two, octave by octave; the detail
// coefficients d_{j,k} at octave j carry the energy the Abry-Veitch
// estimator regresses against scale. Periodic boundary handling.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fullweb::timeseries {

enum class WaveletKind {
  kHaar,  ///< D2: 2-tap; 1 vanishing moment
  kD4,    ///< Daubechies 4-tap; 2 vanishing moments (paper-appropriate
          ///< default: robust to the linear trends the paper removes)
};

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
                                       WaveletKind kind = WaveletKind::kD4,
                                       std::size_t min_coeffs = 4);

}  // namespace fullweb::timeseries
