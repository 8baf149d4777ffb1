// Tests for the statistical hypothesis tests: KPSS, Anderson-Darling,
// binomial meta-tests, and the digamma/trigamma special functions.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "stats/anderson_darling.h"
#include "stats/binomial.h"
#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/kpss.h"
#include "stats/prefix_moments.h"
#include "stats/regression.h"
#include "stats/special.h"
#include "support/rng.h"
#include "timeseries/fgn.h"

namespace fullweb::stats {
namespace {

std::vector<double> white_noise(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.normal();
  return xs;
}

// ------------------------------------------------------------------ KPSS

TEST(Kpss, AcceptsWhiteNoise) {
  const auto xs = white_noise(5000, 1);
  const auto r = kpss_test(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().stationary_at_5pct());
  EXPECT_LT(r.value().statistic, 0.463);
}

TEST(Kpss, AcceptsStationaryAr1) {
  support::Rng rng(2);
  std::vector<double> xs(20000);
  xs[0] = 0;
  for (std::size_t t = 1; t < xs.size(); ++t)
    xs[t] = 0.5 * xs[t - 1] + rng.normal();
  const auto r = kpss_test(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().stationary_at_5pct());
}

TEST(Kpss, RejectsRandomWalk) {
  support::Rng rng(3);
  std::vector<double> xs(5000);
  double level = 0;
  for (auto& x : xs) {
    level += rng.normal();
    x = level;
  }
  const auto r = kpss_test(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().stationary_at_5pct());
  EXPECT_LE(r.value().p_value, 0.01 + 1e-12);
}

TEST(Kpss, RejectsLinearTrendUnderLevelNull) {
  support::Rng rng(4);
  std::vector<double> xs(5000);
  for (std::size_t t = 0; t < xs.size(); ++t)
    xs[t] = 0.01 * static_cast<double>(t) + rng.normal();
  const auto r = kpss_test(xs, KpssNull::kLevel);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().stationary_at_5pct());
}

TEST(Kpss, TrendNullAcceptsTrendStationary) {
  support::Rng rng(8);  // seed 5 is a (legitimate) 5%-level false positive
  std::vector<double> xs(5000);
  for (std::size_t t = 0; t < xs.size(); ++t)
    xs[t] = 0.01 * static_cast<double>(t) + rng.normal();
  const auto r = kpss_test(xs, KpssNull::kTrend);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().stationary_at_5pct());
  EXPECT_DOUBLE_EQ(r.value().critical_5pct, 0.146);
}

TEST(Kpss, ExplicitLagHonored) {
  const auto xs = white_noise(1000, 6);
  const auto r = kpss_test(xs, KpssNull::kLevel, 7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().lag, 7U);
}

TEST(Kpss, AutomaticLagFormula) {
  const auto xs = white_noise(1000, 7);
  const auto r = kpss_test(xs);
  ASSERT_TRUE(r.ok());
  // floor(12 * (1000/100)^0.25) = floor(21.3) = 21
  EXPECT_EQ(r.value().lag, 21U);
}

TEST(Kpss, ErrorsOnTinySeries) {
  const std::vector<double> xs = {1, 2, 3};
  EXPECT_FALSE(kpss_test(xs).ok());
}

TEST(Kpss, ErrorsOnConstantSeries) {
  const std::vector<double> xs(100, 5.0);
  EXPECT_FALSE(kpss_test(xs).ok());
}

TEST(Kpss, NamesNonFiniteInput) {
  // A NaN or an infinity anywhere is the input's fault, whichever null and
  // form runs; the message must not blame a constant series.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (const std::size_t at : {std::size_t{0}, std::size_t{57}, std::size_t{99}}) {
      auto xs = white_noise(100, 9);
      xs[at] = bad;
      const PrefixMoments pm(xs);
      for (const KpssNull null : {KpssNull::kLevel, KpssNull::kTrend}) {
        for (const auto& r : {kpss_test(xs, null), kpss_test(xs, pm, null)}) {
          ASSERT_FALSE(r.ok()) << bad << " at " << at;
          EXPECT_EQ(r.error().category, "invalid_argument") << r.error().message;
          EXPECT_NE(r.error().message.find("NaN or inf"), std::string::npos)
              << r.error().message;
        }
      }
    }
  }
}

TEST(Kpss, PrefixMomentsOfAnotherSeriesRejected) {
  const auto xs = white_noise(200, 10);
  const PrefixMoments shorter(std::span<const double>(xs).first(199));
  const auto r = kpss_test(xs, shorter);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().category, "invalid_argument");
}

// ------------------------------------------------------- KPSS reference

/// The per-lag form of kpss_test that the blocked lag kernel replaced: the
/// residuals' prefix moments built as a PrefixMoments, the numerator's
/// squares summed in four lanes, and each lag's products in four lanes of
/// their own, one lag after another.
constexpr double kRefLevels[] = {0.10, 0.05, 0.025, 0.01};
constexpr double kRefCritLevel[] = {0.347, 0.463, 0.574, 0.739};
constexpr double kRefCritTrend[] = {0.119, 0.146, 0.176, 0.216};

double ref_interpolate_p(double stat, const double* crit) {
  if (stat <= crit[0]) return 0.10;
  if (stat >= crit[3]) return 0.01;
  for (int i = 0; i < 3; ++i) {
    if (stat < crit[i + 1]) {
      const double frac = (stat - crit[i]) / (crit[i + 1] - crit[i]);
      return kRefLevels[i] + frac * (kRefLevels[i + 1] - kRefLevels[i]);
    }
  }
  return 0.01;
}

double ref_sum_sq4(std::span<const double> xs) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t t = 0;
  const double* p = xs.data();
  for (; t + 4 <= xs.size(); t += 4) {
    s0 += p[t] * p[t];
    s1 += p[t + 1] * p[t + 1];
    s2 += p[t + 2] * p[t + 2];
    s3 += p[t + 3] * p[t + 3];
  }
  for (; t < xs.size(); ++t) s0 += p[t] * p[t];
  return (s0 + s2) + (s1 + s3);
}

double ref_lagged_dot4(std::span<const double> e, std::size_t s) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  const double* p = e.data();
  const std::size_t n = e.size();
  std::size_t t = s;
  for (; t + 4 <= n; t += 4) {
    a0 += p[t] * p[t - s];
    a1 += p[t + 1] * p[t + 1 - s];
    a2 += p[t + 2] * p[t + 2 - s];
    a3 += p[t + 3] * p[t + 3 - s];
  }
  for (; t < n; ++t) a0 += p[t] * p[t - s];
  return (a0 + a2) + (a1 + a3);
}

support::Result<KpssResult> ref_kpss(std::span<const double> xs,
                                     KpssNull null_hypothesis, long lag) {
  using support::Error;
  const std::size_t n = xs.size();
  if (n < 10) return Error::insufficient_data("kpss_test: need n >= 10");
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
  const PrefixMoments pm(e);
  const double sum_s2 = ref_sum_sq4(pm.centered_cumsum().subspan(1));
  const double nn = static_cast<double>(n);
  const double numerator = sum_s2 / (nn * nn);
  std::size_t l;
  if (lag < 0) {
    l = static_cast<std::size_t>(std::floor(12.0 * std::pow(nn / 100.0, 0.25)));
  } else {
    l = static_cast<std::size_t>(lag);
  }
  l = std::min(l, n - 1);
  double s2 = pm.block_sum_sq_dev(0, n) / nn;
  for (std::size_t s = 1; s <= l; ++s) {
    const double w = 1.0 - static_cast<double>(s) / static_cast<double>(l + 1);
    s2 += 2.0 * w * ref_lagged_dot4(e, s) / nn;
  }
  if (!(s2 > 0.0))
    return Error::numeric("kpss_test: zero long-run variance (constant series)");
  KpssResult r;
  r.statistic = numerator / s2;
  r.lag = l;
  r.null_hypothesis = null_hypothesis;
  const double* crit =
      null_hypothesis == KpssNull::kLevel ? kRefCritLevel : kRefCritTrend;
  r.critical_5pct = crit[1];
  r.p_value = ref_interpolate_p(r.statistic, crit);
  return r;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Same outcome to the bit: both fail with one category, or both succeed
/// with equal statistic, p-value, critical value, lag and null.
::testing::AssertionResult same_kpss(const support::Result<KpssResult>& want,
                                     const support::Result<KpssResult>& got) {
  if (want.ok() != got.ok())
    return ::testing::AssertionFailure()
           << "ok " << want.ok() << " vs " << got.ok() << " ("
           << (want.ok() ? got.error().message : want.error().message) << ")";
  if (!want.ok()) {
    if (want.error().category == got.error().category)
      return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << want.error().category << " vs "
                                         << got.error().category;
  }
  const KpssResult& a = want.value();
  const KpssResult& b = got.value();
  if (bits(a.statistic) != bits(b.statistic) || a.lag != b.lag ||
      bits(a.p_value) != bits(b.p_value) ||
      bits(a.critical_5pct) != bits(b.critical_5pct) ||
      a.null_hypothesis != b.null_hypothesis)
    return ::testing::AssertionFailure()
           << "statistic " << a.statistic << " vs " << b.statistic << ", lag "
           << a.lag << " vs " << b.lag;
  return ::testing::AssertionSuccess();
}

TEST(KpssReference, MatchesParentBitForBit) {
  // Every length 10-600 and a stride of lengths up to 5,000 (past two of
  // the kernel's 2,048-residual tiles), each as integer counts (some of
  // them constant) and as fGn on a large offset; both nulls; the automatic
  // lag, lags 0 and 1, one drawn lag, and n itself (clamped to n - 1).
  // The prefix-moment form must give the span form's bits.
  support::Rng rng(2026);
  std::size_t series = 0, cases = 0, failures = 0;
  const auto check = [&](std::span<const double> xs, long lag) {
    const PrefixMoments pm(xs);
    for (const KpssNull null : {KpssNull::kLevel, KpssNull::kTrend}) {
      const auto want = ref_kpss(xs, null, lag);
      const auto got = kpss_test(xs, null, lag);
      const auto got_pm = kpss_test(xs, pm, null, lag);
      ++cases;
      const auto a = same_kpss(want, got);
      const auto b = same_kpss(got, got_pm);
      if ((!a || !b) && ++failures <= 10)
        ADD_FAILURE() << "n=" << xs.size() << " lag=" << lag << " null="
                      << static_cast<int>(null) << ": " << a.message() << " / "
                      << b.message();
    }
  };
  // The fGn series are prefixes of four 5,000-point draws, H 0.6 ... 0.9.
  std::vector<std::vector<double>> draws;
  for (const double h : {0.6, 0.7, 0.8, 0.9}) {
    auto fgn = timeseries::generate_fgn(5000, h, 1.0, rng);
    ASSERT_TRUE(fgn.ok());
    for (auto& x : fgn.value()) x += 4.0e8;
    draws.push_back(std::move(fgn.value()));
  }
  std::vector<std::size_t> lengths;
  for (std::size_t n = 10; n <= 600; ++n) lengths.push_back(n);
  for (std::size_t n = 601; n <= 5000; n += 11) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    std::vector<double> counts(n);
    const double rate = 0.5 + 6.0 * rng.uniform();
    for (auto& c : counts) c = std::floor(2.0 * rate * rng.uniform_pos());
    if (n % 97 == 0) std::fill(counts.begin(), counts.end(), 3.0);
    const std::span<const double> fgn =
        std::span<const double>(draws[n % 4]).first(n);
    // The O(n^2) lags (drawn from 0 ... n, and n) run on every length up
    // to 100, every tenth up to 600 and four past it; other series draw
    // their lag from 0 ... 64.
    const bool full = n <= 100 || (n <= 600 && n % 10 == 3) ||
                      (n > 600 && (n - 601) % 1100 == 550);
    const long drawn = static_cast<long>(rng.below(full ? n + 1 : 65));
    for (const std::span<const double> xs : {std::span<const double>(counts), fgn}) {
      ++series;
      check(xs, -1);
      check(xs, 0);
      check(xs, 1);
      check(xs, drawn);
      if (full) check(xs, static_cast<long>(n));
    }
  }
  EXPECT_GE(series, 1900U);
  EXPECT_EQ(failures, 0U) << "of " << cases << " cases";
}

// ---------------------------------------------------------- Anderson-Darling

TEST(AndersonDarling, AcceptsExponentialSample) {
  support::Rng rng(11);
  const Exponential e(3.0);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = e.sample(rng);
  const auto r = anderson_darling_exponential(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().exponential_at_5pct());
  EXPECT_NEAR(r.value().lambda_hat, 3.0, 0.2);
}

TEST(AndersonDarling, RejectsUniformSample) {
  support::Rng rng(12);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = rng.uniform(0.5, 1.5);
  const auto r = anderson_darling_exponential(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().exponential_at_5pct());
}

TEST(AndersonDarling, RejectsParetoSample) {
  support::Rng rng(13);
  const Pareto p(1.5, 1.0);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = p.sample(rng);
  const auto r = anderson_darling_exponential(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().exponential_at_5pct());
}

TEST(AndersonDarling, RejectsLognormalSample) {
  support::Rng rng(14);
  const Lognormal ln(0.0, 1.0);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = ln.sample(rng);
  const auto r = anderson_darling_exponential(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().exponential_at_5pct());
}

TEST(AndersonDarling, FalseRejectionRateNear5Percent) {
  // Calibration check of the 1.341 critical value.
  int rejections = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    support::Rng rng(1000 + t);
    const Exponential e(1.0);
    std::vector<double> xs(200);
    for (auto& x : xs) x = e.sample(rng);
    const auto r = anderson_darling_exponential(xs);
    ASSERT_TRUE(r.ok());
    if (!r.value().exponential_at_5pct()) ++rejections;
  }
  const double rate = static_cast<double>(rejections) / trials;
  EXPECT_GT(rate, 0.01);
  EXPECT_LT(rate, 0.11);
}

TEST(AndersonDarling, ErrorsOnTinyOrInvalidSamples) {
  EXPECT_FALSE(anderson_darling_exponential(std::vector<double>{1, 2}).ok());
  EXPECT_FALSE(
      anderson_darling_exponential(std::vector<double>{1, 2, -1, 3, 4}).ok());
  EXPECT_FALSE(
      anderson_darling_exponential(std::vector<double>{0, 0, 0, 0, 0}).ok());
}

TEST(AndersonDarling, CriticalValueTable) {
  EXPECT_DOUBLE_EQ(ad_exponential_critical(0.05), 1.341);
  EXPECT_DOUBLE_EQ(ad_exponential_critical(0.01), 1.957);
  EXPECT_THROW((void)ad_exponential_critical(0.2), std::invalid_argument);
}

// --------------------------------------------------------------- Binomial

TEST(Binomial, PmfKnownValues) {
  EXPECT_NEAR(binomial_pmf(4, 0.95, 4), 0.81450625, 1e-9);
  EXPECT_NEAR(binomial_pmf(4, 0.95, 3), 0.171475, 1e-6);
  EXPECT_NEAR(binomial_pmf(4, 0.95, 2), 0.0135375, 1e-7);
  EXPECT_NEAR(binomial_pmf(4, 0.5, 2), 0.375, 1e-12);
}

TEST(Binomial, PmfSumsToOne) {
  double total = 0;
  for (std::size_t k = 0; k <= 24; ++k) total += binomial_pmf(24, 0.95, k);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Binomial, CdfMonotone) {
  double prev = 0;
  for (std::size_t k = 0; k <= 10; ++k) {
    const double c = binomial_cdf(10, 0.3, k);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(binomial_cdf(10, 0.3, 10), 1.0);
}

TEST(Binomial, EdgeProbabilities) {
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 0.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 1.0, 5), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 0.5, 6), 0.0);
}

TEST(CountTest, PaperExampleFourIntervals) {
  // With 4 intervals at 95% pass rate: s = 4 or 3 do not reject; s <= 2 does.
  EXPECT_FALSE(binomial_count_test(4, 4).rejected);
  EXPECT_FALSE(binomial_count_test(4, 3).rejected);
  EXPECT_TRUE(binomial_count_test(4, 2).rejected);
  EXPECT_TRUE(binomial_count_test(4, 0).rejected);
}

TEST(CountTest, TwentyFourIntervals) {
  // 10-minute split of a 4-hour window: 24 intervals.
  EXPECT_FALSE(binomial_count_test(24, 24).rejected);
  EXPECT_FALSE(binomial_count_test(24, 22).rejected);
  EXPECT_TRUE(binomial_count_test(24, 19).rejected);
}

TEST(CountTest, EmptyIsNoVerdict) {
  const auto t = binomial_count_test(0, 0);
  EXPECT_FALSE(t.rejected);
}

TEST(SignTest, BalancedNotSignificant) {
  const auto t = sign_test(4, 2);
  EXPECT_FALSE(t.significant_positive);
  EXPECT_FALSE(t.significant_negative);
}

TEST(SignTest, ExtremeCountsSignificantWhenNLargeEnough) {
  // With n = 4, P(X = 4 | B(4, .5)) = 0.0625 > 0.025: not significant.
  EXPECT_FALSE(sign_test(4, 4).significant_positive);
  // With n = 8, P(X = 8) = 0.0039 < 0.025: significant.
  const auto t = sign_test(8, 8);
  EXPECT_TRUE(t.significant_positive);
  EXPECT_FALSE(t.significant_negative);
  const auto tneg = sign_test(8, 0);
  EXPECT_TRUE(tneg.significant_negative);
}

// ---------------------------------------------------------------- Special

TEST(Digamma, KnownValues) {
  constexpr double kEulerGamma = 0.5772156649015329;
  EXPECT_NEAR(digamma(1.0), -kEulerGamma, 1e-10);
  EXPECT_NEAR(digamma(2.0), 1.0 - kEulerGamma, 1e-10);
  EXPECT_NEAR(digamma(0.5), -kEulerGamma - 2.0 * std::log(2.0), 1e-10);
  EXPECT_NEAR(digamma(10.0), 2.251752589066721, 1e-10);
}

TEST(Digamma, RecurrenceHolds) {
  for (double x : {0.3, 1.7, 4.2, 25.0})
    EXPECT_NEAR(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-10);
}

TEST(Trigamma, KnownValues) {
  EXPECT_NEAR(trigamma(1.0), std::numbers::pi * std::numbers::pi / 6.0, 1e-10);
  EXPECT_NEAR(trigamma(2.0), std::numbers::pi * std::numbers::pi / 6.0 - 1.0,
              1e-10);
}

TEST(Trigamma, RecurrenceHolds) {
  for (double x : {0.4, 1.3, 6.6, 40.0})
    EXPECT_NEAR(trigamma(x + 1.0), trigamma(x) - 1.0 / (x * x), 1e-10);
}

TEST(Special, RejectNonPositive) {
  EXPECT_THROW((void)digamma(0.0), std::invalid_argument);
  EXPECT_THROW((void)trigamma(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace fullweb::stats
