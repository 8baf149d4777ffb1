#include "stats/descriptive.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

namespace fullweb::stats {

double mean(std::span<const double> xs) noexcept {
  assert(!xs.empty());
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double compensated_sum(std::span<const double> xs) noexcept {
  NeumaierSum acc;
  for (double x : xs) acc.add(x);
  return acc.value();
}

double compensated_mean(std::span<const double> xs) noexcept {
  assert(!xs.empty());
  return compensated_sum(xs) / static_cast<double>(xs.size());
}

namespace {

/// Four-lane sum of one contiguous block. Lanes are interleaved mod 4 and
/// reduced in a fixed tree, so the result is deterministic; blocks shorter
/// than 4 reduce left-to-right, identical to a naive loop.
inline double block_sum4(const double* p, std::size_t m) noexcept {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    s0 += p[i];
    s1 += p[i + 1];
    s2 += p[i + 2];
    s3 += p[i + 3];
  }
  for (; i < m; ++i) s0 += p[i];
  return (s0 + s2) + (s1 + s3);
}

/// Four-lane sum of squared deviations from `c` over one block.
inline double block_ssd4(const double* p, std::size_t m, double c) noexcept {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double d0 = p[i] - c;
    const double d1 = p[i + 1] - c;
    const double d2 = p[i + 2] - c;
    const double d3 = p[i + 3] - c;
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; i < m; ++i) {
    const double d = p[i] - c;
    s0 += d * d;
  }
  return (s0 + s2) + (s1 + s3);
}

}  // namespace

void block_means(std::span<const double> xs, std::size_t m,
                 std::span<double> out) noexcept {
  assert(m >= 1 && xs.size() >= out.size() * m);
  const double inv = 1.0 / static_cast<double>(m);
  const double* p = xs.data();
  for (std::size_t k = 0; k < out.size(); ++k, p += m)
    out[k] = block_sum4(p, m) * inv;
}

void block_variances(std::span<const double> xs, std::size_t m,
                     std::span<double> out) noexcept {
  assert(m >= 1 && xs.size() >= out.size() * m);
  const double inv = 1.0 / static_cast<double>(m);
  const double* p = xs.data();
  for (std::size_t k = 0; k < out.size(); ++k, p += m) {
    const double c = block_sum4(p, m) * inv;
    const double ssd = block_ssd4(p, m, c);
    out[k] = ssd >= 0.0 ? ssd * inv : 0.0;
  }
}

void minmax_prefix_walk(std::span<const double> cum, double base, double step,
                        double& min_out, double& max_out) noexcept {
  double mn0 = 0.0, mn1 = 0.0, mx0 = 0.0, mx1 = 0.0;
  const double* p = cum.data();
  const std::size_t n = cum.size();
  std::size_t k = 0;
  double fk = 1.0;  // (k + 1) as a double, advanced with the loop
  for (; k + 2 <= n; k += 2, fk += 2.0) {
    const double w0 = p[k] - base - fk * step;
    const double w1 = p[k + 1] - base - (fk + 1.0) * step;
    mn0 = std::min(mn0, w0);
    mn1 = std::min(mn1, w1);
    mx0 = std::max(mx0, w0);
    mx1 = std::max(mx1, w1);
  }
  if (k < n) {
    const double w = p[k] - base - fk * step;
    mn0 = std::min(mn0, w);
    mx0 = std::max(mx0, w);
  }
  min_out = std::min(mn0, mn1);
  max_out = std::max(mx0, mx1);
}

namespace {
double sum_sq_dev(std::span<const double> xs) noexcept {
  // Two-pass algorithm for numerical stability on long, nearly-constant
  // series (per-second counts can have millions of samples).
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) {
    const double d = x - m;
    ss += d * d;
  }
  return ss;
}
}  // namespace

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  return sum_sq_dev(xs) / static_cast<double>(xs.size() - 1);
}

double variance_population(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return sum_sq_dev(xs) / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) noexcept {
  return std::sqrt(variance(xs));
}

double min_value(std::span<const double> xs) noexcept {
  assert(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) noexcept {
  assert(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double quantile_sorted(std::span<const double> sorted, double q) noexcept {
  assert(!sorted.empty());
  if (std::isnan(q)) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double idx = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double quantile(std::span<const double> xs, double q) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return quantile_sorted(sorted, q);
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  s.min = sorted.front();
  s.max = sorted.back();
  s.q25 = quantile_sorted(sorted, 0.25);
  s.median = quantile_sorted(sorted, 0.50);
  s.q75 = quantile_sorted(sorted, 0.75);
  return s;
}

}  // namespace fullweb::stats
