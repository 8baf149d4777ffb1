#include "stats/acf.h"

#include <cassert>
#include <cmath>
#include <complex>

#include "stats/descriptive.h"
#include "stats/fft.h"

namespace fullweb::stats {

std::vector<double> acf(std::span<const double> xs, std::size_t max_lag) {
  const std::size_t n = xs.size();
  assert(n >= 1);
  if (max_lag >= n) max_lag = n - 1;

  const double m = mean(xs);

  // Autocovariance via FFT: pad to >= 2n to avoid circular wrap-around.
  // The padded length is a power of two, so the forward transform takes the
  // packed real-input path.
  std::vector<double> staged(next_pow2(2 * n), 0.0);
  for (std::size_t i = 0; i < n; ++i) staged[i] = xs[i] - m;
  auto buf = fft_real(staged);
  for (auto& v : buf) v = {std::norm(v), 0.0};
  ifft(buf);

  std::vector<double> r(max_lag + 1, 0.0);
  const double c0 = buf[0].real() / static_cast<double>(n);
  r[0] = 1.0;
  if (c0 <= 0.0 || !std::isfinite(c0)) return r;  // constant series
  for (std::size_t k = 1; k <= max_lag; ++k) {
    r[k] = (buf[k].real() / static_cast<double>(n)) / c0;
  }
  return r;
}

double autocorrelation_at(std::span<const double> xs, std::size_t lag) noexcept {
  const std::size_t n = xs.size();
  if (lag >= n || n < 2) return 0.0;
  const double m = mean(xs);
  double c0 = 0.0;
  double ck = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const double d = xs[t] - m;
    c0 += d * d;
  }
  for (std::size_t t = 0; t + lag < n; ++t) {
    ck += (xs[t] - m) * (xs[t + lag] - m);
  }
  if (c0 <= 0.0) return 0.0;
  return ck / c0;
}

double acf_abs_sum(std::span<const double> xs, std::size_t max_lag) {
  const auto r = acf(xs, max_lag);
  double sum = 0.0;
  for (std::size_t k = 1; k < r.size(); ++k) sum += std::fabs(r[k]);
  return sum;
}

}  // namespace fullweb::stats
