#include "stats/periodogram.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <complex>
#include <numbers>

#include "stats/descriptive.h"
#include "stats/fft.h"
#include "support/executor.h"

namespace fullweb::stats {

namespace {

/// λ_j = 2πj/n. The band and the full periodogram share this expression, so
/// their frequencies (and the periods read from them) agree to the bit.
double frequency(std::size_t j, std::size_t n) {
  return 2.0 * std::numbers::pi * static_cast<double>(j) /
         static_cast<double>(n);
}

}  // namespace

Periodogram periodogram(std::span<const double> xs,
                        support::Executor* executor) {
  Periodogram pg;
  const std::size_t n = xs.size();
  if (n < 2) return pg;

  // Remove the mean so the j = 0 ordinate does not leak into neighbours.
  // Power-of-two lengths (the whittle/Hurst sweeps truncate to one) take the
  // packed real path.
  const double m = mean(xs);
  std::vector<double> staged(n);
  for (std::size_t i = 0; i < n; ++i) staged[i] = xs[i] - m;
  const auto buf = fft_real(staged, executor);

  const std::size_t half = (n - 1) / 2;
  pg.frequency.resize(half);
  pg.power.resize(half);
  const double norm = 1.0 / (2.0 * std::numbers::pi * static_cast<double>(n));
  auto fill = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t j = i + 1;
      pg.frequency[i] = frequency(j, n);
      pg.power[i] = std::norm(buf[j]) * norm;
    }
  };
  constexpr std::size_t kFillChunk = 16384;
  if (executor == nullptr || executor->serial() || half < 2 * kFillChunk) {
    fill(0, half);
  } else {
    const std::size_t chunks = (half + kFillChunk - 1) / kFillChunk;
    executor->parallel_for(
        0, chunks,
        [&](std::size_t c) {
          fill(c * kFillChunk, std::min(half, (c + 1) * kFillChunk));
        },
        /*grain=*/1);
  }
  return pg;
}

support::Result<PeriodogramBand> periodogram_band(std::span<const double> xs,
                                                  std::size_t min_period,
                                                  std::size_t max_period) {
  if (min_period < 1 || max_period < min_period)
    return support::Error::invalid_argument(
        "periodogram_band: bad period bounds");
  PeriodogramBand band;
  const std::size_t n = xs.size();
  band.n = n;
  if (n < 2) return band;

  const std::size_t half = (n - 1) / 2;
  const std::size_t slowest = n / max_period;
  const std::size_t first = slowest > 3 ? slowest - 2 : 1;
  const std::size_t last =
      std::min(half, (n + min_period - 1) / min_period + 2);
  const std::size_t count = first <= last ? last - first + 1 : 0;

  // X_j = Σ_blocks e^{-iλ_j t0} · Σ_{k<B} y_{t0+k} e^{-iλ_j k}. The inner
  // sums read a k-major table of e^{-iλ_j k}, one row per in-block offset,
  // so the ordinate loop is contiguous; each block then costs one cos/sin
  // pair per ordinate to rotate to its start, whose reduced index
  // (j·t0) mod n advances by (j·B) mod n per block in exact integer
  // arithmetic. Blocks are 256 samples, shorter when the band is so wide
  // that the table would outgrow the series. Every ordinate sums in one
  // fixed order.
  constexpr std::size_t kMaxBlock = 256;
  const std::size_t block =
      count == 0 ? kMaxBlock
                 : std::clamp<std::size_t>(n / (2 * count), 1, kMaxBlock);
  auto twiddle = [n](std::size_t r, double& re, double& im) {
    re = std::cos(frequency(r, n));
    im = -std::sin(frequency(r, n));
  };
  std::vector<double> w_re(block * count), w_im(block * count);
  for (std::size_t k = 0; k < block; ++k)
    for (std::size_t c = 0; c < count; ++c)
      twiddle((first + c) * k % n, w_re[k * count + c], w_im[k * count + c]);

  std::vector<std::size_t> start(count, 0), advance(count);
  for (std::size_t c = 0; c < count; ++c) advance[c] = (first + c) * block % n;

  const double m = mean(xs);
  std::vector<double> x_re(count, 0.0), x_im(count, 0.0);
  std::vector<double> s_re(count), s_im(count);
  std::array<double, kMaxBlock> y{};
  double sum_sq = 0.0, sum = 0.0, alternating = 0.0;
  for (std::size_t t0 = 0; t0 < n; t0 += block) {
    const std::size_t len = std::min(block, n - t0);
    double block_sq = 0.0, block_sum = 0.0, block_alt = 0.0;
    for (std::size_t k = 0; k < len; ++k) {
      y[k] = xs[t0 + k] - m;
      block_sq += y[k] * y[k];
      block_sum += y[k];
      block_alt += (t0 + k) % 2 == 0 ? y[k] : -y[k];
    }
    sum_sq += block_sq;
    sum += block_sum;
    alternating += block_alt;

    std::fill(s_re.begin(), s_re.end(), 0.0);
    std::fill(s_im.begin(), s_im.end(), 0.0);
    for (std::size_t k = 0; k < len; ++k) {
      const double yk = y[k];
      const double* row_re = w_re.data() + k * count;
      const double* row_im = w_im.data() + k * count;
      for (std::size_t c = 0; c < count; ++c) {
        s_re[c] += yk * row_re[c];
        s_im[c] += yk * row_im[c];
      }
    }
    for (std::size_t c = 0; c < count; ++c) {
      double r_re = 0.0, r_im = 0.0;
      twiddle(start[c], r_re, r_im);
      x_re[c] += r_re * s_re[c] - r_im * s_im[c];
      x_im[c] += r_re * s_im[c] + r_im * s_re[c];
      start[c] += advance[c];
      if (start[c] >= n) start[c] -= n;
    }
  }

  const double norm = 1.0 / (2.0 * std::numbers::pi * static_cast<double>(n));
  band.ordinates.frequency.resize(count);
  band.ordinates.power.resize(count);
  for (std::size_t c = 0; c < count; ++c) {
    band.ordinates.frequency[c] = frequency(first + c, n);
    band.ordinates.power[c] = (x_re[c] * x_re[c] + x_im[c] * x_im[c]) * norm;
  }

  // Parseval: Σ_{j=0}^{n-1} |Y_j|² = n·Σy², and |Y_j| = |Y_{n-j}|, so the
  // ordinates j = 1..⌊(n-1)/2⌋ hold half of what remains after Y_0 = Σy
  // and, for even n, the Nyquist term Y_{n/2} = Σ(-1)^t·y_t.
  double pairs = static_cast<double>(n) * sum_sq - sum * sum;
  if (n % 2 == 0) pairs -= alternating * alternating;
  band.total_power = std::max(0.0, 0.5 * pairs * norm);
  return band;
}

double dominant_period(const Periodogram& pg, double min_period,
                       double max_period) {
  assert(min_period > 0 && max_period >= min_period);
  double best_power = -1.0;
  double best_period = 0.0;
  for (std::size_t i = 0; i < pg.frequency.size(); ++i) {
    const double period = 2.0 * std::numbers::pi / pg.frequency[i];
    if (period < min_period || period > max_period) continue;
    if (pg.power[i] > best_power) {
      best_power = pg.power[i];
      best_period = period;
    }
  }
  return best_period;
}

}  // namespace fullweb::stats
