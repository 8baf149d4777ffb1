// Periodogram estimation of the spectral density.
//
// Two uses in the paper: (1) locating the dominant periodicity of the
// request/session series (the 24-hour diurnal cycle) before seasonal
// removal, which reads only a narrow band of ordinates (periodogram_band),
// and (2) the Periodogram Hurst estimator, which regresses log I(λ) on
// log λ over the lowest frequencies (the FFT-backed periodogram).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "support/result.h"

namespace fullweb::support {
class Executor;
}

namespace fullweb::stats {

/// Periodogram ordinates of a real series:
///   I(λ_j) = (1 / (2π n)) |Σ_t x_t e^{-i t λ_j}|²,  λ_j = 2π j / n,
/// for j = 1 .. floor((n-1)/2) (the zero frequency / sample mean is
/// excluded). `frequency[j-1]` holds λ_j in radians.
struct Periodogram {
  std::vector<double> frequency;  ///< angular frequencies λ_j in (0, π]
  std::vector<double> power;      ///< I(λ_j)
};

/// A non-null `executor` parallelizes the underlying FFT stages and the
/// ordinate fill (null = serial, the FFT-leaf convention — see stats/fft.h).
/// The ordinates are bit-identical at any thread count.
[[nodiscard]] Periodogram periodogram(std::span<const double> xs,
                                      support::Executor* executor = nullptr);

/// The slice of the periodogram a period search reads, plus the total
/// power a strength ratio divides by — without the full-series FFT.
struct PeriodogramBand {
  std::size_t n = 0;       ///< length of the series
  Periodogram ordinates;   ///< I(λ_j) for the band's j, ascending in j
  double total_power = 0;  ///< Σ_{j=1}^{⌊(n−1)/2⌋} I(λ_j) over every ordinate
};

/// Ordinates j = max(1, ⌊n/max_period⌋ − 2) .. min(⌊(n−1)/2⌋,
/// ⌈n/min_period⌉ + 2): every ordinate whose period lies in
/// [min_period, max_period] plus two bins at each end, so a ±1.5-bin window
/// around any period in range stays inside the band.
/// Each is a direct DFT of the mean-removed series, taken in blocks with
/// every twiddle from cos/sin of its reduced index (j·t mod n), so the cost
/// is O(n·J) for J ordinates, no plan is built and no buffer outgrows the
/// series. The total comes from Parseval's identity in the same O(n) pass.
/// Values equal periodogram()'s up to rounding; the result does not depend
/// on any executor. Meant for narrow bands such as the diurnal search
/// (~170 ordinates on a week of 1-second bins): a band spanning most of the
/// spectrum costs O(n²), where periodogram() is the right tool. Errors
/// (invalid_argument) unless 1 <= min_period <= max_period.
[[nodiscard]] support::Result<PeriodogramBand> periodogram_band(
    std::span<const double> xs, std::size_t min_period,
    std::size_t max_period);

/// Period (in samples) of the largest ordinate whose implied period lies
/// within [min_period, max_period]; the bounds keep trivial short-lag noise
/// and the full window length from being selected. Returns 0 when no
/// ordinate falls in range.
[[nodiscard]] double dominant_period(const Periodogram& pg, double min_period,
                                     double max_period);

}  // namespace fullweb::stats
