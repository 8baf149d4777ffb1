#include "timeseries/wavelet.h"

#include <array>
#include <cmath>

namespace fullweb::timeseries {

namespace {

struct FilterPair {
  std::vector<double> h;  ///< low-pass (scaling)
  std::vector<double> g;  ///< high-pass (wavelet): g_k = (-1)^k h_{L-1-k}
};

FilterPair make_filters(WaveletKind kind) {
  FilterPair f;
  switch (kind) {
    case WaveletKind::kHaar: {
      const double s = 1.0 / std::sqrt(2.0);
      f.h = {s, s};
      break;
    }
    case WaveletKind::kD4: {
      const double r3 = std::sqrt(3.0);
      const double norm = 4.0 * std::sqrt(2.0);
      f.h = {(1.0 + r3) / norm, (3.0 + r3) / norm, (3.0 - r3) / norm,
             (1.0 - r3) / norm};
      break;
    }
  }
  const std::size_t len = f.h.size();
  f.g.resize(len);
  for (std::size_t k = 0; k < len; ++k) {
    const double sign = (k % 2 == 0) ? 1.0 : -1.0;
    f.g[k] = sign * f.h[len - 1 - k];
  }
  return f;
}

}  // namespace

WaveletDecomposition dwt(std::span<const double> xs, WaveletKind kind,
                         std::size_t min_coeffs) {
  const FilterPair f = make_filters(kind);
  const std::size_t flen = f.h.size();

  WaveletDecomposition out;
  std::vector<double> approx(xs.begin(), xs.end());
  if (min_coeffs < 2) min_coeffs = 2;

  while (approx.size() / 2 >= min_coeffs && approx.size() >= flen) {
    if (approx.size() % 2 != 0) approx.pop_back();
    const std::size_t half = approx.size() / 2;
    std::vector<double> next(half, 0.0);
    std::vector<double> detail(half, 0.0);
    const std::size_t n = approx.size();
    // The periodic wrap only matters for the last few outputs (2k + t >= n
    // needs 2k > n - flen), so the bulk of each level runs with direct
    // indexing — the per-tap modulo was the hot spot of the whole transform.
    // Accumulation order per output is identical to the wrapped loop.
    const std::size_t safe = (n - flen) / 2 + 1;
    const double* src = approx.data();
    if (flen == 4) {
      const double h0 = f.h[0], h1 = f.h[1], h2 = f.h[2], h3 = f.h[3];
      const double g0 = f.g[0], g1 = f.g[1], g2 = f.g[2], g3 = f.g[3];
      for (std::size_t k = 0; k < safe; ++k) {
        const double* p = src + 2 * k;
        next[k] = ((h0 * p[0] + h1 * p[1]) + h2 * p[2]) + h3 * p[3];
        detail[k] = ((g0 * p[0] + g1 * p[1]) + g2 * p[2]) + g3 * p[3];
      }
    } else {
      for (std::size_t k = 0; k < safe; ++k) {
        const double* p = src + 2 * k;
        double a = 0.0;
        double d = 0.0;
        for (std::size_t t = 0; t < flen; ++t) {
          a += f.h[t] * p[t];
          d += f.g[t] * p[t];
        }
        next[k] = a;
        detail[k] = d;
      }
    }
    for (std::size_t k = safe; k < half; ++k) {
      double a = 0.0;
      double d = 0.0;
      for (std::size_t t = 0; t < flen; ++t) {
        const std::size_t idx = (2 * k + t) % n;  // periodic extension
        a += f.h[t] * approx[idx];
        d += f.g[t] * approx[idx];
      }
      next[k] = a;
      detail[k] = d;
    }
    out.details.push_back(std::move(detail));
    approx = std::move(next);
  }
  out.final_approximation = std::move(approx);
  return out;
}

}  // namespace fullweb::timeseries
