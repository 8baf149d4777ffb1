#include "timeseries/fgn.h"

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <memory>

#include "stats/fft.h"
#include "support/lru_cache.h"

namespace fullweb::timeseries {

using support::Error;
using support::Result;

double fgn_autocovariance(double hurst, std::size_t lag) noexcept {
  if (lag == 0) return 1.0;
  const double k = static_cast<double>(lag);
  const double h2 = 2.0 * hurst;
  return 0.5 * (std::pow(k + 1.0, h2) - 2.0 * std::pow(k, h2) +
                std::pow(k - 1.0, h2));
}

namespace {

/// Circulant-embedding eigenstructure for one (n, H) configuration, reduced
/// to the per-bin standard deviations the sampler multiplies into the
/// Gaussian draws. Depends only on (n, H) yet costs a size-2n FFT, so
/// Monte-Carlo sweeps that redraw at a fixed configuration pay it once.
struct FgnSpectrum {
  bool psd_ok = false;
  /// scale[k] = sqrt(eigen[k]/(2n)) for k in {0, n}; sqrt(eigen[k]/(4n))
  /// for 0 < k < n — exactly the factors the draw loop used to compute
  /// inline, so cached draws are bit-identical to uncached ones.
  std::vector<double> scale;
};

struct FgnKey {
  std::size_t n = 0;
  std::uint64_t hurst_bits = 0;
  bool operator==(const FgnKey&) const = default;
};

struct FgnKeyHash {
  std::size_t operator()(const FgnKey& k) const noexcept {
    return std::hash<std::size_t>{}(k.n) ^
           (std::hash<std::uint64_t>{}(k.hurst_bits) * 0x9e3779b97f4a7c15ULL);
  }
};

support::LruCache<FgnKey, FgnSpectrum, FgnKeyHash>& spectrum_cache() {
  static support::LruCache<FgnKey, FgnSpectrum, FgnKeyHash> cache(8);
  return cache;
}

std::shared_ptr<const FgnSpectrum> fgn_spectrum(std::size_t n, double hurst) {
  const FgnKey key{n, std::bit_cast<std::uint64_t>(hurst)};
  return spectrum_cache().get_or_create(key, [n, hurst] {
    auto spec = std::make_shared<FgnSpectrum>();

    // Circulant embedding: first row c = [g(0), g(1), .., g(n-1), g(n),
    // g(n-1), .., g(1)] of size 2n. Its eigenvalues are the FFT of c and are
    // non-negative for fGn covariances.
    const std::size_t m = 2 * n;
    std::vector<std::complex<double>> eigen(m);
    for (std::size_t k = 0; k <= n; ++k)
      eigen[k] = {fgn_autocovariance(hurst, k), 0.0};
    for (std::size_t k = n + 1; k < m; ++k) eigen[k] = eigen[m - k];
    stats::fft(eigen);

    // Clip round-off negatives; genuinely negative eigenvalues would mean
    // the embedding failed (cannot happen for 0 < H < 1, so treat as a bug
    // guard).
    double min_eig = 0.0;
    for (auto& e : eigen) {
      min_eig = std::min(min_eig, e.real());
      if (e.real() < 0.0) e = {0.0, 0.0};
    }
    if (min_eig < -1e-6 * static_cast<double>(m)) return spec;  // not PSD

    spec->psd_ok = true;
    spec->scale.resize(n + 1);
    const double inv_m = 1.0 / static_cast<double>(m);
    spec->scale[0] = std::sqrt(eigen[0].real() * inv_m);
    spec->scale[n] = std::sqrt(eigen[n].real() * inv_m);
    for (std::size_t k = 1; k < n; ++k)
      spec->scale[k] = std::sqrt(0.5 * eigen[k].real() * inv_m);
    return spec;
  });
}

}  // namespace

Result<std::vector<double>> generate_fgn(std::size_t n, double hurst, double sigma,
                                         support::Rng& rng) {
  if (n == 0) return std::vector<double>{};
  if (!(hurst > 0.0 && hurst < 1.0))
    return Error::invalid_argument("generate_fgn: H must be in (0,1)");
  if (!(sigma >= 0.0))
    return Error::invalid_argument("generate_fgn: sigma must be >= 0");
  if (n == 1) {
    return std::vector<double>{sigma * rng.normal()};
  }

  const auto spec = fgn_spectrum(n, hurst);
  if (!spec->psd_ok)
    return Error::numeric("generate_fgn: circulant embedding not PSD");
  const std::vector<double>& scale = spec->scale;

  // Build the random spectrum W with the Hermitian symmetry that makes the
  // inverse transform real. The draw order (k = 0, n, then 1..n-1 as
  // real/imag pairs) is part of the bit-compatibility contract with the RNG
  // substream layout — do not reorder.
  const std::size_t m = 2 * n;
  std::vector<std::complex<double>> w(m, {0.0, 0.0});
  w[0] = {scale[0] * rng.normal(), 0.0};
  w[n] = {scale[n] * rng.normal(), 0.0};
  for (std::size_t k = 1; k < n; ++k) {
    const std::complex<double> z(scale[k] * rng.normal(),
                                 scale[k] * rng.normal());
    w[k] = z;
    w[m - k] = std::conj(z);
  }

  stats::fft(w);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = sigma * w[i].real();
  return out;
}

}  // namespace fullweb::timeseries
