#include "stats/prefix_moments.h"

#include "stats/descriptive.h"

namespace fullweb::stats {

PrefixMoments::PrefixMoments(std::span<const double> xs) {
  n_ = xs.size();
  cum_.assign(n_ + 1, 0.0);
  cum2_.assign(n_ + 1, 0.0);
  if (n_ == 0) return;
  anchor_ = compensated_mean(xs);

  // Each prefix array stores the correctly-rounded running Neumaier sum at
  // every index; the two accumulator chains (v and v^2) interleave, so the
  // serial dependency of one chain overlaps the other's arithmetic.
  NeumaierSum s, s2;
  for (std::size_t t = 0; t < n_; ++t) {
    const double v = xs[t] - anchor_;
    s.add(v);
    s2.add(v * v);
    cum_[t + 1] = s.value();
    cum2_[t + 1] = s2.value();
  }
}

double PrefixMoments::aggregated_variance(std::size_t m) const noexcept {
  if (m == 0) return 0.0;
  const std::size_t blocks = n_ / m;
  if (blocks == 0) return 0.0;
  const double inv_m = 1.0 / static_cast<double>(m);

  // Centered block means d_k = (C[(k+1)m] - C[km]) / m; their population
  // variance equals the aggregated series' variance (the anchor shift
  // cancels). Two lanes of plain accumulation on the already-centered
  // values — magnitudes are O(sigma), no compensation needed.
  const double* c = cum_.data();
  double s0 = 0.0, s1 = 0.0, q0 = 0.0, q1 = 0.0;
  std::size_t k = 0;
  for (; k + 2 <= blocks; k += 2) {
    const double d0 = (c[(k + 1) * m] - c[k * m]) * inv_m;
    const double d1 = (c[(k + 2) * m] - c[(k + 1) * m]) * inv_m;
    s0 += d0;
    s1 += d1;
    q0 += d0 * d0;
    q1 += d1 * d1;
  }
  if (k < blocks) {
    const double d = (c[(k + 1) * m] - c[k * m]) * inv_m;
    s0 += d;
    q0 += d * d;
  }
  const double nb = static_cast<double>(blocks);
  const double mean_d = (s0 + s1) / nb;
  const double var = (q0 + q1) / nb - mean_d * mean_d;
  return var > 0.0 ? var : 0.0;
}

MomentSummary MomentSummary::of(std::span<const double> xs) {
  MomentSummary s;
  if (xs.empty()) return s;
  s.count = xs.size();
  NeumaierSum mean_sum;
  for (double x : xs) mean_sum.add(x);
  s.mean = mean_sum.value() / static_cast<double>(xs.size());
  NeumaierSum dev2;
  s.min = xs.front();
  s.max = xs.front();
  for (double x : xs) {
    const double d = x - s.mean;
    dev2.add(d * d);
    if (x < s.min) s.min = x;
    if (x > s.max) s.max = x;
  }
  const double m2 = dev2.value();
  s.m2 = m2 > 0.0 ? m2 : 0.0;
  return s;
}

void MomentSummary::merge(const MomentSummary& other) noexcept {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  // Chan/Golub/LeVeque pairwise combination: exact on count, near-exact on
  // mean/m2 (the delta term captures the between-part variance).
  const double na = static_cast<double>(count);
  const double nb = static_cast<double>(other.count);
  const double n = na + nb;
  const double delta = other.mean - mean;
  mean += delta * (nb / n);
  m2 += other.m2 + delta * delta * (na * nb / n);
  if (m2 < 0.0) m2 = 0.0;
  if (other.min < min) min = other.min;
  if (other.max > max) max = other.max;
  count += other.count;
}

}  // namespace fullweb::stats
