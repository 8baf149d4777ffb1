#include "lrd/abry_veitch.h"

#include <cmath>
#include <numbers>

#include "stats/regression.h"
#include "stats/special.h"
#include "timeseries/wavelet.h"

namespace fullweb::lrd {

using support::Error;
using support::Result;

Result<AbryVeitchResult> abry_veitch_hurst(std::span<const double> xs,
                                           const AbryVeitchOptions& options) {
  if (xs.size() < 64)
    return Error::insufficient_data("abry_veitch_hurst: series too short");

  const auto decomp = timeseries::dwt(xs, options.min_coeffs);
  const std::size_t octaves = decomp.octaves();
  if (octaves < 3)
    return Error::insufficient_data("abry_veitch_hurst: fewer than 3 octaves");

  const std::size_t j1 = std::max<std::size_t>(1, options.j1);
  const std::size_t j2 = options.j2 == 0 ? octaves : std::min(options.j2, octaves);
  if (j2 < j1 + 2)
    return Error::insufficient_data(
        "abry_veitch_hurst: octave range too narrow (need >= 3 octaves)");

  // Coefficients computed with wrapped (periodic) indices see the artificial
  // jump between the series' last and first samples; with a trend present
  // that jump is large and would bias the coarse octaves upward. Drop the
  // trailing boundary-affected coefficients of every octave (the filter
  // spreads the boundary by ~filter_length coefficients per level).
  constexpr std::size_t boundary = 4;  // the D4 filter length

  AbryVeitchResult result;
  const double ln2 = std::numbers::ln2;
  std::vector<double> jj;
  for (std::size_t j = j1; j <= j2; ++j) {
    const auto& d = decomp.details[j - 1];
    if (d.size() < options.min_coeffs) break;
    const std::size_t usable = d.size() - std::min(boundary, d.size() / 2);
    const auto n_j = static_cast<double>(usable);
    // Four-lane sum of squares with a fixed reduction tree: vectorizable and
    // deterministic for any thread count.
    double e0 = 0.0, e1 = 0.0, e2 = 0.0, e3 = 0.0;
    std::size_t k = 0;
    for (; k + 4 <= usable; k += 4) {
      e0 += d[k] * d[k];
      e1 += d[k + 1] * d[k + 1];
      e2 += d[k + 2] * d[k + 2];
      e3 += d[k + 3] * d[k + 3];
    }
    for (; k < usable; ++k) e0 += d[k] * d[k];
    const double energy = (e0 + e2) + (e1 + e3);
    const double mu = energy / n_j;
    if (!(mu > 0.0)) continue;  // octave with all-zero details (constant input)

    // Bias correction g(n_j) and variance of log2(mu_j).
    const double g = stats::digamma(n_j / 2.0) / ln2 - std::log2(n_j / 2.0);
    const double var = stats::trigamma(n_j / 2.0) / (ln2 * ln2);

    jj.push_back(static_cast<double>(j));
    result.octaves.push_back(j);
    result.log2_energy.push_back(std::log2(mu) - g);
    result.weight.push_back(1.0 / var);
  }
  if (jj.size() < 3)
    return Error::numeric("abry_veitch_hurst: fewer than 3 usable octaves");

  const auto fit = stats::wls(jj, result.log2_energy, result.weight);
  result.estimate.method = HurstMethod::kAbryVeitch;
  result.estimate.h = 0.5 * (fit.slope + 1.0);
  result.estimate.ci95_halfwidth = 1.96 * fit.stderr_slope / 2.0;
  result.estimate.r_squared = fit.r_squared;
  return result;
}

}  // namespace fullweb::lrd
