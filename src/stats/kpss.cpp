#include "stats/kpss.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "stats/descriptive.h"
#include "stats/prefix_moments.h"
#include "stats/regression.h"

namespace fullweb::stats {

using support::Error;
using support::Result;

namespace {

// Published asymptotic critical values (Kwiatkowski et al. 1992, Table 1)
// at upper-tail levels 10%, 5%, 2.5%, 1%.
constexpr double kLevels[] = {0.10, 0.05, 0.025, 0.01};
constexpr double kCritLevel[] = {0.347, 0.463, 0.574, 0.739};
constexpr double kCritTrend[] = {0.119, 0.146, 0.176, 0.216};

/// Piecewise-linear interpolation of the p-value from the critical-value
/// table; clamped to [0.01, 0.10] as in common statistical packages.
double interpolate_p(double stat, const double* crit) {
  if (stat <= crit[0]) return 0.10;
  if (stat >= crit[3]) return 0.01;
  for (int i = 0; i < 3; ++i) {
    if (stat < crit[i + 1]) {
      const double frac = (stat - crit[i]) / (crit[i + 1] - crit[i]);
      return kLevels[i] + frac * (kLevels[i + 1] - kLevels[i]);
    }
  }
  return 0.01;
}

/// Four doubles. Packed mul/add round lane by lane as the scalar ops do
/// (the hot-kernel flags forbid contraction), so one quad accumulator sums
/// exactly what four scalar accumulators would.
typedef double Quad __attribute__((vector_size(32)));

constexpr std::size_t kLagGroup = 8;     ///< accumulator quads live at once
constexpr std::size_t kTileQuads = 512;  ///< 2,048 residuals: 16 KiB of L1

/// Newey-West lag sums sums[s - 1] = sum_u e[u] * e[u + s], s = 1 ... l
/// (l < n). Lag s has K_s = (n - s) / 4 whole quads: lane j of its
/// accumulator takes u = j, j + 4, ..., 4 K_s - 4 + j in order, the 0-3
/// products past them go to lane 0, and the lanes reduce as
/// (a0 + a2) + (a1 + a3), which is the order of a four-lane loop over one
/// lag. The quads run in tiles of kTileQuads; eight lags at a time sweep a
/// tile, one accumulator quad each, sharing the load of e[4k ... 4k + 3].
/// A group runs while all its lags have whole quads; each lag then finishes
/// its own last quads and tail.
std::vector<double> lag_sums(std::span<const double> e, std::size_t l) {
  const std::size_t n = e.size();
  const double* p = e.data();
  const std::size_t groups = (l + kLagGroup - 1) / kLagGroup;
  std::vector<double> acc(groups * kLagGroup * 4, 0.0);  // one quad per lag
  const auto group_quads = [&](std::size_t g) {
    return (n - std::min(g * kLagGroup + kLagGroup, l)) / 4;
  };
  for (std::size_t k0 = 0; groups > 0 && k0 < group_quads(0);
       k0 += kTileQuads) {
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t kend = std::min(k0 + kTileQuads, group_quads(g));
      if (k0 >= kend) break;  // later groups have fewer whole quads
      // A last group short of eight lags repeats lag l; those sums are
      // never read.
      std::size_t o[kLagGroup];
      for (std::size_t i = 0; i < kLagGroup; ++i)
        o[i] = std::min(g * kLagGroup + i + 1, l);
      Quad a[kLagGroup];
      std::memcpy(a, acc.data() + g * kLagGroup * 4, sizeof a);
      for (std::size_t k = k0; k < kend; ++k) {
        const double* q = p + 4 * k;
        Quad x;
        std::memcpy(&x, q, sizeof x);
        // Unrolled, the eight accumulators stay in registers.
#pragma GCC unroll 8
        for (std::size_t i = 0; i < kLagGroup; ++i) {
          Quad y;
          std::memcpy(&y, q + o[i], sizeof y);
          a[i] += x * y;
        }
      }
      std::memcpy(acc.data() + g * kLagGroup * 4, a, sizeof a);
    }
  }
  std::vector<double> sums(l);
  for (std::size_t s = 1; s <= l; ++s) {
    Quad a;
    std::memcpy(&a, acc.data() + (s - 1) * 4, sizeof a);
    std::size_t k = group_quads((s - 1) / kLagGroup);
    for (; k < (n - s) / 4; ++k) {
      Quad x, y;
      std::memcpy(&x, p + 4 * k, sizeof x);
      std::memcpy(&y, p + 4 * k + s, sizeof x);
      a += x * y;
    }
    double a0 = a[0];
    for (std::size_t u = 4 * k; u + s < n; ++u) a0 += p[u] * p[u + s];
    sums[s - 1] = (a0 + a[2]) + (a[1] + a[3]);
  }
  return sums;
}

/// The test on residuals e of xs under the null, with mean(e) from the
/// caller (compensated). One Neumaier pass over v_t = e_t - mean(e) gives
/// the partial sums S_t (each compensated instead of drifting), squared
/// into four lanes by t mod 4 with the 0-3 sums past the last whole quad
/// in lane 0, and the sum of v_t^2: the long-run variance's lag 0.
Result<KpssResult> kpss_residuals(std::span<const double> xs,
                                  std::span<const double> e, double e_mean,
                                  KpssNull null_hypothesis, long lag) {
  const std::size_t n = e.size();
  NeumaierSum sum, sum_sq;
  const auto partial_sq = [&](std::size_t t) {
    const double v = e[t] - e_mean;
    sum.add(v);
    sum_sq.add(v * v);
    const double c = sum.value();
    return c * c;
  };
  double q0 = 0.0, q1 = 0.0, q2 = 0.0, q3 = 0.0;
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    q0 += partial_sq(t);
    q1 += partial_sq(t + 1);
    q2 += partial_sq(t + 2);
    q3 += partial_sq(t + 3);
  }
  for (; t < n; ++t) q0 += partial_sq(t);

  // Partial-sum statistic numerator: n^-2 * sum_t S_t^2.
  const double nn = static_cast<double>(n);
  const double numerator = ((q0 + q2) + (q1 + q3)) / (nn * nn);

  // Newey-West long-run variance with Bartlett kernel.
  std::size_t l;
  if (lag < 0) {
    l = static_cast<std::size_t>(std::floor(12.0 * std::pow(nn / 100.0, 0.25)));
  } else {
    l = static_cast<std::size_t>(lag);
  }
  l = std::min(l, n - 1);

  const double s_n = sum.value();
  const double ssd = sum_sq.value() - s_n * s_n / nn;
  double s2 = (ssd > 0.0 ? ssd : 0.0) / nn;
  const std::vector<double> g = lag_sums(e, l);
  for (std::size_t s = 1; s <= l; ++s) {
    const double w = 1.0 - static_cast<double>(s) / static_cast<double>(l + 1);
    s2 += 2.0 * w * g[s - 1] / nn;
  }
  const double statistic = numerator / s2;
  if (!(s2 > 0.0) || !std::isfinite(statistic)) {
    // Only a failed or overflowed test pays for the scan.
    if (std::any_of(xs.begin(), xs.end(),
                    [](double x) { return !std::isfinite(x); }))
      return Error::invalid_argument("kpss_test: series holds NaN or inf");
    if (!(s2 > 0.0))
      return Error::numeric("kpss_test: zero long-run variance (constant series)");
  }

  KpssResult r;
  r.statistic = statistic;
  r.lag = l;
  r.null_hypothesis = null_hypothesis;
  const double* crit =
      null_hypothesis == KpssNull::kLevel ? kCritLevel : kCritTrend;
  r.critical_5pct = crit[1];
  r.p_value = interpolate_p(r.statistic, crit);
  return r;
}

}  // namespace

Result<KpssResult> kpss_test(std::span<const double> xs, KpssNull null_hypothesis,
                             long lag) {
  const std::size_t n = xs.size();
  if (n < 10) return Error::insufficient_data("kpss_test: need n >= 10");

  // Residuals under the null: demean (level) against the compensated mean,
  // or detrend (trend) by least squares.
  std::vector<double> e(n);
  if (null_hypothesis == KpssNull::kLevel) {
    const double m = compensated_mean(xs);
    for (std::size_t t = 0; t < n; ++t) e[t] = xs[t] - m;
  } else {
    std::vector<double> tt(n);
    for (std::size_t t = 0; t < n; ++t) tt[t] = static_cast<double>(t);
    const LinearFit fit = ols(tt, xs);
    for (std::size_t t = 0; t < n; ++t) e[t] = xs[t] - fit.predict(tt[t]);
  }
  return kpss_residuals(xs, e, compensated_mean(e), null_hypothesis, lag);
}

Result<KpssResult> kpss_test(std::span<const double> xs, const PrefixMoments& pm,
                             KpssNull null_hypothesis, long lag) {
  if (pm.size() != xs.size())
    return Error::invalid_argument(
        "kpss_test: prefix moments are not of this series");
  if (null_hypothesis == KpssNull::kTrend)
    return kpss_test(xs, null_hypothesis, lag);
  const std::size_t n = xs.size();
  if (n < 10) return Error::insufficient_data("kpss_test: need n >= 10");

  // pm.anchor() is compensated_mean(xs), and the compensated sum of the
  // residuals xs[t] - anchor is pm's centered sum over [0, n).
  std::vector<double> e(n);
  const double m = pm.anchor();
  for (std::size_t t = 0; t < n; ++t) e[t] = xs[t] - m;
  return kpss_residuals(xs, e, pm.centered_sum(0, n) / static_cast<double>(n),
                        null_hypothesis, lag);
}

}  // namespace fullweb::stats
