#include "lrd/periodogram_hurst.h"

#include <cmath>
#include <vector>

#include "stats/fft.h"
#include "stats/regression.h"
#include "stats/vecmath.h"

namespace fullweb::lrd {

using support::Error;
using support::Result;

Result<HurstEstimate> periodogram_hurst_pg(
    const stats::Periodogram& pg, const PeriodogramHurstOptions& options) {
  const auto use = static_cast<std::size_t>(
      std::floor(options.low_frequency_fraction *
                 static_cast<double>(pg.frequency.size())));
  if (use < options.min_ordinates)
    return Error::insufficient_data(
        "periodogram_hurst: too few low-frequency ordinates");

  std::vector<double> freq;
  std::vector<double> power;
  freq.reserve(use);
  power.reserve(use);
  for (std::size_t j = 0; j < use; ++j) {
    if (!(pg.power[j] > 0.0)) continue;  // exact zeros from degenerate input
    freq.push_back(pg.frequency[j]);
    power.push_back(pg.power[j]);
  }
  if (freq.size() < options.min_ordinates)
    return Error::numeric("periodogram_hurst: degenerate spectrum");

  std::vector<double> log_f(freq.size());
  std::vector<double> log_i(power.size());
  stats::log10_batch(freq, log_f);
  stats::log10_batch(power, log_i);

  const auto fit = stats::ols(log_f, log_i);
  HurstEstimate est;
  est.method = HurstMethod::kPeriodogram;
  est.h = (1.0 - fit.slope) / 2.0;
  est.ci95_halfwidth = 1.96 * fit.stderr_slope / 2.0;
  est.r_squared = fit.r_squared;
  return est;
}

Result<HurstEstimate> periodogram_hurst(std::span<const double> xs,
                                        const PeriodogramHurstOptions& options) {
  const auto pg = stats::periodogram(stats::pow2_prefix(xs));
  return periodogram_hurst_pg(pg, options);
}

}  // namespace fullweb::lrd
