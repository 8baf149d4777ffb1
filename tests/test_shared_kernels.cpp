// Tests for the compute-sharing layer: PrefixMoments, AggregationPyramid,
// the vectorized block kernels, the deterministic exp/log batch kernels, and
// the shared-input estimator suite.
//
// Three kinds of guarantees are pinned here:
//  1. Equivalence: every shared-structure query matches a naive (long
//     double) reference on randomized inputs, and every ported estimator
//     matches an in-test reimplementation of its pre-port algorithm.
//  2. Precision: the compensated paths survive a large mean offset that
//     breaks naive summation (the satellite regression tests).
//  3. Determinism: suite and sweep results are bit-identical across
//     executor widths and across shared-vs-standalone input structures
//     (this binary also runs under the TSan gate).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "lrd/estimator_suite.h"
#include "stats/descriptive.h"
#include "stats/kpss.h"
#include "stats/prefix_moments.h"
#include "stats/regression.h"
#include "stats/vecmath.h"
#include "support/executor.h"
#include "support/rng.h"
#include "timeseries/fgn.h"
#include "timeseries/pyramid.h"
#include "timeseries/series.h"

namespace fullweb {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<double> random_series(std::size_t n, std::uint64_t seed,
                                  double offset = 0.0) {
  support::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = offset + rng.normal() + 0.1 * rng.uniform();
  return xs;
}

long double ld_sum(std::span<const double> xs, std::size_t i, std::size_t j) {
  long double s = 0.0L;
  for (std::size_t t = i; t < j; ++t) s += xs[t];
  return s;
}

long double ld_ssd(std::span<const double> xs, std::size_t i, std::size_t j) {
  const long double m = ld_sum(xs, i, j) / static_cast<long double>(j - i);
  long double s = 0.0L;
  for (std::size_t t = i; t < j; ++t) {
    const long double d = static_cast<long double>(xs[t]) - m;
    s += d * d;
  }
  return s;
}

// ---------------------------------------------------------------------------
// PrefixMoments vs naive references.

TEST(PrefixMoments, MatchesNaiveOnRandomBlocks) {
  const auto xs = random_series(257, 11);
  const stats::PrefixMoments pm(xs);
  ASSERT_EQ(pm.size(), xs.size());

  support::Rng rng(22);
  for (int rep = 0; rep < 300; ++rep) {
    std::size_t i = rng.below(xs.size());
    std::size_t j = rng.below(xs.size() + 1);
    if (i > j) std::swap(i, j);
    const auto fsum = static_cast<double>(ld_sum(xs, i, j));
    EXPECT_NEAR(pm.sum(i, j), fsum, 1e-10 + 1e-12 * std::abs(fsum));
    if (j > i) {
      const double fmean = fsum / static_cast<double>(j - i);
      EXPECT_NEAR(pm.block_mean(i, j), fmean, 1e-12 + 1e-12 * std::abs(fmean));
      const auto fssd = static_cast<double>(ld_ssd(xs, i, j));
      EXPECT_NEAR(pm.block_sum_sq_dev(i, j), fssd, 1e-9 + 1e-9 * fssd);
      EXPECT_GE(pm.block_variance(i, j), 0.0);
    }
  }
}

TEST(PrefixMoments, CenteredCumsumMatchesNaive) {
  const auto xs = random_series(100, 33);
  const stats::PrefixMoments pm(xs);
  const auto cum = pm.centered_cumsum();
  ASSERT_EQ(cum.size(), xs.size() + 1);
  EXPECT_EQ(cum[0], 0.0);
  const long double mean = ld_sum(xs, 0, xs.size()) /
                           static_cast<long double>(xs.size());
  long double run = 0.0L;
  for (std::size_t t = 0; t < xs.size(); ++t) {
    run += static_cast<long double>(xs[t]) - mean;
    EXPECT_NEAR(cum[t + 1], static_cast<double>(run), 1e-10);
  }
}

TEST(PrefixMoments, ConstantSeriesVarianceIsExactlyZero) {
  const std::vector<double> xs(123, 7.0);
  const stats::PrefixMoments pm(xs);
  EXPECT_EQ(pm.anchor(), 7.0);
  EXPECT_EQ(pm.block_variance(0, xs.size()), 0.0);
  EXPECT_EQ(pm.block_variance(17, 55), 0.0);
  EXPECT_EQ(pm.aggregated_variance(5), 0.0);
  EXPECT_EQ(pm.aggregated_variance(123), 0.0);
}

TEST(PrefixMoments, EmbeddedConstantBlockVarianceIsTinyNonNegative) {
  auto xs = random_series(200, 44);
  for (std::size_t t = 40; t < 60; ++t) xs[t] = 5.0;
  const stats::PrefixMoments pm(xs);
  const double v = pm.block_variance(40, 60);
  EXPECT_GE(v, 0.0);  // the clamp: never tiny-negative
  EXPECT_LE(v, 1e-9);
}

TEST(MomentSummary, OfMatchesNaiveAndPrefixMoments) {
  const auto xs = random_series(513, 77);
  const auto s = stats::MomentSummary::of(xs);
  ASSERT_EQ(s.count, xs.size());
  const auto fsum = static_cast<double>(ld_sum(xs, 0, xs.size()));
  EXPECT_NEAR(s.mean, fsum / static_cast<double>(xs.size()), 1e-12);
  const auto fssd = static_cast<double>(ld_ssd(xs, 0, xs.size()));
  EXPECT_NEAR(s.m2, fssd, 1e-9 + 1e-9 * fssd);
  EXPECT_EQ(s.min, *std::min_element(xs.begin(), xs.end()));
  EXPECT_EQ(s.max, *std::max_element(xs.begin(), xs.end()));

  // The prefix moments carry of()'s mean and m2 to the bit: anchor() is the
  // same compensated mean, and the last prefix of squares the same sum.
  const stats::PrefixMoments pm(xs);
  const auto ps = pm.summary();
  EXPECT_EQ(ps.count, s.count);
  EXPECT_EQ(bits(ps.mean), bits(s.mean));
  EXPECT_EQ(bits(ps.m2), bits(s.m2));
}

TEST(MomentSummary, MergeOfDisjointPartsMatchesWhole) {
  const auto xs = random_series(1000, 99);
  const auto whole = stats::MomentSummary::of(xs);

  support::Rng rng(5);
  for (int rep = 0; rep < 50; ++rep) {
    // Random partition into up to 7 contiguous parts (some possibly empty),
    // merged left-to-right: must reproduce the one-shot summary.
    std::vector<std::size_t> cuts = {0, xs.size()};
    for (int c = 0; c < 6; ++c) cuts.push_back(rng.below(xs.size() + 1));
    std::sort(cuts.begin(), cuts.end());
    stats::MomentSummary merged;
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k)
      merged.merge(stats::MomentSummary::of(
          std::span<const double>(xs).subspan(cuts[k], cuts[k + 1] - cuts[k])));
    EXPECT_EQ(merged.count, whole.count);
    EXPECT_EQ(merged.min, whole.min);
    EXPECT_EQ(merged.max, whole.max);
    EXPECT_NEAR(merged.mean, whole.mean, 1e-11 + 1e-12 * std::abs(whole.mean));
    EXPECT_NEAR(merged.m2, whole.m2, 1e-8 + 1e-8 * whole.m2);
    EXPECT_NEAR(merged.variance(), whole.variance(),
                1e-9 + 1e-8 * whole.variance());
  }

  // Merging with an empty summary is the identity, both ways.
  stats::MomentSummary empty;
  stats::MomentSummary copy = whole;
  copy.merge(empty);
  EXPECT_EQ(copy.count, whole.count);
  EXPECT_EQ(copy.mean, whole.mean);
  empty.merge(whole);
  EXPECT_EQ(empty.count, whole.count);
  EXPECT_EQ(empty.max, whole.max);
}

TEST(PrefixMoments, AggregatedVarianceMatchesNaiveIncludingRaggedLevels) {
  const auto xs = random_series(1000, 77);
  const stats::PrefixMoments pm(xs);
  for (std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{7}, std::size_t{64}, std::size_t{333}}) {
    const auto agg = timeseries::aggregate(xs, m);
    const auto fssd = static_cast<double>(ld_ssd(agg, 0, agg.size()));
    const double naive = fssd / static_cast<double>(agg.size());
    EXPECT_NEAR(pm.aggregated_variance(m), naive, 1e-10 + 1e-9 * naive)
        << "m=" << m;
  }
}

// ---------------------------------------------------------------------------
// Vectorized block kernels.

TEST(BlockKernels, BlockMeansMatchNaive) {
  const auto xs = random_series(257, 88);
  for (std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{4}, std::size_t{5}, std::size_t{8},
                        std::size_t{16}, std::size_t{100}}) {
    const std::size_t blocks = xs.size() / m;
    std::vector<double> out(blocks);
    stats::block_means(std::span<const double>(xs).first(blocks * m), m, out);
    for (std::size_t k = 0; k < blocks; ++k) {
      const double naive = static_cast<double>(
          ld_sum(xs, k * m, (k + 1) * m) / static_cast<long double>(m));
      EXPECT_NEAR(out[k], naive, 1e-12 + 1e-13 * std::abs(naive))
          << "m=" << m << " k=" << k;
    }
  }
}

TEST(BlockKernels, BlockVariancesMatchNaiveAndClamp) {
  auto xs = random_series(240, 99);
  for (std::size_t t = 24; t < 32; ++t) xs[t] = 3.0;  // one constant block
  const std::size_t m = 8;
  const std::size_t blocks = xs.size() / m;
  std::vector<double> out(blocks);
  stats::block_variances(xs, m, out);
  for (std::size_t k = 0; k < blocks; ++k) {
    const double naive = static_cast<double>(
        ld_ssd(xs, k * m, (k + 1) * m) / static_cast<long double>(m));
    EXPECT_NEAR(out[k], naive, 1e-12 + 1e-10 * naive);
    EXPECT_GE(out[k], 0.0);
  }
  EXPECT_EQ(out[3], 0.0);  // xs[24..32) is exactly constant
}

TEST(BlockKernels, MinmaxPrefixWalkMatchesNaive) {
  const auto xs = random_series(301, 111);
  const stats::PrefixMoments pm(xs);
  const auto cum = pm.centered_cumsum();
  support::Rng rng(17);
  for (int rep = 0; rep < 50; ++rep) {
    const std::size_t start = rng.below(xs.size() - 2);
    const std::size_t size = 1 + rng.below(xs.size() - start - 1);
    const double base = cum[start];
    const double step = (cum[start + size] - base) / static_cast<double>(size);
    double lo = 0.0, hi = 0.0;
    stats::minmax_prefix_walk(cum.subspan(start + 1, size), base, step, lo, hi);
    double nlo = 0.0, nhi = 0.0;
    for (std::size_t k = 0; k < size; ++k) {
      const double w =
          cum[start + 1 + k] - base - static_cast<double>(k + 1) * step;
      nlo = std::min(nlo, w);
      nhi = std::max(nhi, w);
    }
    EXPECT_DOUBLE_EQ(lo, nlo);
    EXPECT_DOUBLE_EQ(hi, nhi);
  }
}

// ---------------------------------------------------------------------------
// Aggregation pyramid.

TEST(AggregationPyramid, LevelsMatchAggregateIncludingRaggedAndNonDividing) {
  const auto xs = random_series(1000, 123);
  const std::vector<std::size_t> levels = {1, 2, 3, 4, 6, 7, 8,
                                           12, 24, 100, 101, 333};
  const timeseries::AggregationPyramid pyr(xs, levels);
  for (std::size_t m : levels) {
    const auto got = pyr.level(m);
    const auto want = timeseries::aggregate(xs, m);
    ASSERT_EQ(got.size(), want.size()) << "m=" << m;
    for (std::size_t k = 0; k < want.size(); ++k)
      EXPECT_NEAR(got[k], want[k], 1e-12 + 1e-12 * std::abs(want[k]))
          << "m=" << m << " k=" << k;
  }
}

TEST(AggregationPyramid, LevelOneAliasesTheInput) {
  const auto xs = random_series(64, 7);
  const std::vector<std::size_t> levels = {1, 4};
  const timeseries::AggregationPyramid pyr(xs, levels);
  EXPECT_EQ(pyr.level(1).data(), xs.data());
  EXPECT_EQ(pyr.level(1).size(), xs.size());
}

TEST(AggregationPyramid, DedupsSortsAndDropsZeros) {
  const auto xs = random_series(100, 8);
  const std::vector<std::size_t> levels = {10, 0, 2, 10, 5};
  const timeseries::AggregationPyramid pyr(xs, levels);
  const std::vector<std::size_t> want = {2, 5, 10};
  EXPECT_EQ(pyr.levels(), want);
}

TEST(AggregationPyramid, LevelsWithoutADivisorEqualAggregateBitForBit) {
  // A level with no materialized divisor is aggregated from the input by
  // the same kernel as timeseries::aggregate, whatever its size.
  const auto xs = random_series(997, 9);
  for (const std::vector<std::size_t>& levels :
       {std::vector<std::size_t>{1, 10}, std::vector<std::size_t>{7, 101, 333}}) {
    const timeseries::AggregationPyramid pyr(xs, levels);
    for (std::size_t m : levels) {
      const auto got = pyr.level(m);
      const auto want = timeseries::aggregate(xs, m);
      ASSERT_EQ(got.size(), want.size()) << "m=" << m;
      for (std::size_t k = 0; k < want.size(); ++k)
        ASSERT_EQ(bits(got[k]), bits(want[k])) << "m=" << m << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic exp/log kernels.

TEST(Vecmath, ExpMatchesStdOverWideRange) {
  support::Rng rng(31);
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.uniform(-700.0, 700.0);
    const double want = std::exp(x);
    const double got = stats::vm_exp(x);
    EXPECT_NEAR(got, want, 1e-13 * want) << "x=" << x;
  }
}

TEST(Vecmath, ExpEdgeCases) {
  EXPECT_TRUE(std::isnan(stats::vm_exp(std::nan(""))));
  EXPECT_EQ(stats::vm_exp(1000.0), HUGE_VAL);
  EXPECT_EQ(stats::vm_exp(-1000.0), 0.0);
  EXPECT_EQ(stats::vm_exp(0.0), 1.0);
  EXPECT_TRUE(std::isfinite(stats::vm_exp(709.0)));
  EXPECT_GT(stats::vm_exp(-708.0), 0.0);
}

TEST(Vecmath, LogMatchesStdOverWideRange) {
  support::Rng rng(32);
  for (int i = 0; i < 4000; ++i) {
    const double x = std::exp(rng.uniform(-690.0, 690.0));
    const double want = std::log(x);
    const double got = stats::vm_log(x);
    EXPECT_NEAR(got, want, 1e-13 + 1e-14 * std::abs(want)) << "x=" << x;
  }
  // Near 1, where log cancels.
  for (int i = 0; i < 1000; ++i) {
    const double x = 1.0 + rng.uniform(-0.4, 0.4);
    EXPECT_NEAR(stats::vm_log(x), std::log(x), 1e-15) << "x=" << x;
  }
}

TEST(Vecmath, LogFallbackMatchesStdOnNonNormals) {
  EXPECT_EQ(stats::vm_log(0.0), std::log(0.0));  // -inf
  EXPECT_TRUE(std::isnan(stats::vm_log(-1.0)));
  const double denormal = 1e-310;
  EXPECT_EQ(stats::vm_log(denormal), std::log(denormal));
  EXPECT_EQ(stats::vm_log(HUGE_VAL), std::log(HUGE_VAL));
}

TEST(Vecmath, BatchFormsMatchScalarAndAllowInPlace) {
  const auto xs = random_series(97, 41, 2.0);  // positive-ish inputs
  std::vector<double> pos(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) pos[i] = std::abs(xs[i]) + 0.1;
  std::vector<double> out(pos.size());
  stats::log_batch(pos, out);
  for (std::size_t i = 0; i < pos.size(); ++i)
    EXPECT_EQ(bits(out[i]), bits(stats::vm_log(pos[i])));
  std::vector<double> inplace = pos;
  stats::log10_batch(inplace, inplace);
  for (std::size_t i = 0; i < pos.size(); ++i)
    EXPECT_NEAR(inplace[i], std::log10(pos[i]), 1e-13);
  std::vector<double> eout(pos.size());
  stats::exp_batch(pos, eout);
  for (std::size_t i = 0; i < pos.size(); ++i)
    EXPECT_EQ(bits(eout[i]), bits(stats::vm_exp(pos[i])));
}

// ---------------------------------------------------------------------------
// Whittle aliasing-sum interpolation.

TEST(WhittleAlias, ChebyshevMatchesExactSum) {
  for (double h : {0.05, 0.3, 0.55, 0.7, 0.8, 0.95}) {
    const lrd::detail::AliasChebyshev cheb(h);
    for (int i = 0; i <= 200; ++i) {
      const double lambda =
          static_cast<double>(i) / 200.0 * 3.141592653589793;
      const double want = lrd::detail::fgn_alias_sum(lambda, h);
      EXPECT_NEAR(cheb(lambda), want, 1e-10 * std::abs(want) + 1e-14)
          << "h=" << h << " lambda=" << lambda;
    }
  }
}

TEST(WhittleAlias, BatchMatchesScalar) {
  const lrd::detail::AliasChebyshev cheb(0.8);
  std::vector<double> lambda;
  for (int i = 1; i <= 37; ++i)
    lambda.push_back(static_cast<double>(i) / 37.0 * 3.14159);
  std::vector<double> out(lambda.size());
  cheb.eval_batch(lambda, out);
  for (std::size_t i = 0; i < lambda.size(); ++i)
    EXPECT_EQ(bits(out[i]), bits(cheb(lambda[i])));
}

// ---------------------------------------------------------------------------
// Estimator equivalence: ported implementations vs their pre-port algorithms.

std::vector<double> fgn(std::size_t n, double h, std::uint64_t seed) {
  support::Rng rng(seed);
  auto r = timeseries::generate_fgn(n, h, 1.0, rng);
  EXPECT_TRUE(r.ok());
  return r.ok() ? r.value() : std::vector<double>{};
}

TEST(SharedEstimators, VarianceTimeMatchesNaiveReimplementation) {
  const auto xs = fgn(4096, 0.8, 1);
  const lrd::VarianceTimeOptions options;
  const auto levels =
      timeseries::log_spaced_levels(xs.size(), options.levels, options.min_blocks);
  std::vector<double> lm, lv;
  for (std::size_t m : levels) {
    const auto agg = timeseries::aggregate(xs, m);
    const double v = static_cast<double>(
        ld_ssd(agg, 0, agg.size()) / static_cast<long double>(agg.size()));
    if (!(v > 0.0)) continue;
    lm.push_back(std::log10(static_cast<double>(m)));
    lv.push_back(std::log10(v));
  }
  const auto fit = stats::ols(lm, lv);
  const double naive_h = 1.0 + fit.slope / 2.0;
  const auto est = lrd::variance_time_hurst(xs, options);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.value().h, naive_h, 1e-8);
}

double naive_rs_statistic(std::span<const double> block) {
  const std::size_t n = block.size();
  double mean = 0.0;
  for (double x : block) mean += x;
  mean /= static_cast<double>(n);
  double ss = 0.0;
  for (double x : block) ss += (x - mean) * (x - mean);
  const double s = std::sqrt(ss / static_cast<double>(n));
  if (!(s > 0.0)) return 0.0;
  double w = 0.0, w_min = 0.0, w_max = 0.0;
  for (double x : block) {
    w += x - mean;
    w_min = std::min(w_min, w);
    w_max = std::max(w_max, w);
  }
  return (w_max - w_min) / s;
}

TEST(SharedEstimators, RsMatchesNaiveReimplementation) {
  const auto xs = fgn(4096, 0.75, 2);
  const lrd::RsOptions options;
  // Reproduce the clamped size grid, then the naive per-block statistic.
  const std::size_t lo_sz = options.min_block_size;
  const std::size_t hi_sz = std::max(lo_sz, xs.size() / options.min_blocks);
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < options.levels; ++i) {
    const double frac = static_cast<double>(i) /
                        static_cast<double>(options.levels - 1);
    const auto raw = static_cast<std::size_t>(std::lround(
        static_cast<double>(lo_sz) *
        std::pow(static_cast<double>(hi_sz) / static_cast<double>(lo_sz),
                 frac)));
    const std::size_t sz = std::clamp(raw, lo_sz, hi_sz);
    if (sizes.empty() || sizes.back() != sz) sizes.push_back(sz);
  }
  std::vector<double> ln, lr;
  for (std::size_t size : sizes) {
    const std::size_t blocks = xs.size() / size;
    double sum = 0.0;
    std::size_t used = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const double rs = naive_rs_statistic(
          std::span<const double>(xs).subspan(b * size, size));
      if (rs > 0.0) {
        sum += rs;
        ++used;
      }
    }
    if (used == 0) continue;
    ln.push_back(std::log10(static_cast<double>(size)));
    lr.push_back(std::log10(sum / static_cast<double>(used)));
  }
  const auto fit = stats::ols(ln, lr);
  const auto est = lrd::rs_hurst(xs, options);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.value().h, fit.slope, 1e-8);
}

double naive_kpss_level_statistic(std::span<const double> xs) {
  const std::size_t n = xs.size();
  const long double mean = ld_sum(xs, 0, n) / static_cast<long double>(n);
  std::vector<long double> e(n);
  for (std::size_t t = 0; t < n; ++t)
    e[t] = static_cast<long double>(xs[t]) - mean;
  long double run = 0.0L, num = 0.0L;
  for (std::size_t t = 0; t < n; ++t) {
    run += e[t];
    num += run * run;
  }
  const auto nn = static_cast<long double>(n);
  num /= nn * nn;
  const auto l = static_cast<std::size_t>(std::floor(
      12.0 * std::pow(static_cast<double>(n) / 100.0, 0.25)));
  long double s2 = 0.0L;
  for (std::size_t t = 0; t < n; ++t) s2 += e[t] * e[t];
  s2 /= nn;
  for (std::size_t s = 1; s <= l; ++s) {
    long double gamma = 0.0L;
    for (std::size_t t = s; t < n; ++t) gamma += e[t] * e[t - s];
    const long double w =
        1.0L - static_cast<long double>(s) / static_cast<long double>(l + 1);
    s2 += 2.0L * w * gamma / nn;
  }
  return static_cast<double>(num / s2);
}

TEST(SharedEstimators, KpssMatchesLongDoubleReference) {
  const auto xs = fgn(2000, 0.7, 3);
  const auto r = stats::kpss_test(xs, stats::KpssNull::kLevel);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().statistic, naive_kpss_level_statistic(xs),
              1e-9 * naive_kpss_level_statistic(xs));
}

// Satellite regression: compensated demean under a mean >> fluctuations.
TEST(SharedEstimators, KpssSurvivesLargeMeanOffset) {
  auto xs = fgn(800, 0.7, 4);
  const double base_stat = naive_kpss_level_statistic(xs);
  for (auto& x : xs) x += 4.0e8;
  const auto r = stats::kpss_test(xs, stats::KpssNull::kLevel);
  ASSERT_TRUE(r.ok());
  // The statistic is shift-invariant in exact arithmetic; the long-double
  // reference on the *offset* series is itself accurate to ~1e-10 here.
  EXPECT_NEAR(r.value().statistic, naive_kpss_level_statistic(xs),
              1e-6 * base_stat);
  EXPECT_NEAR(r.value().statistic, base_stat, 1e-5 * base_stat);
}

TEST(SharedEstimators, RsAndVarianceTimeAreShiftInvariant) {
  auto xs = fgn(4096, 0.8, 5);
  const auto rs0 = lrd::rs_hurst(xs);
  const auto vt0 = lrd::variance_time_hurst(xs);
  ASSERT_TRUE(rs0.ok());
  ASSERT_TRUE(vt0.ok());
  for (auto& x : xs) x += 1.0e9;
  const auto rs1 = lrd::rs_hurst(xs);
  const auto vt1 = lrd::variance_time_hurst(xs);
  ASSERT_TRUE(rs1.ok());
  ASSERT_TRUE(vt1.ok());
  EXPECT_NEAR(rs1.value().h, rs0.value().h, 1e-6);
  EXPECT_NEAR(vt1.value().h, vt0.value().h, 1e-6);
}

TEST(SharedEstimators, AggregatedVariancesMatchNaive) {
  const auto xs = random_series(2048, 13);
  const std::vector<std::size_t> levels = {1, 2, 5, 10, 20, 50, 100};
  const auto got = timeseries::aggregated_variances(xs, levels);
  ASSERT_EQ(got.size(), levels.size());
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const auto agg = timeseries::aggregate(xs, levels[i]);
    const double want = static_cast<double>(
        ld_ssd(agg, 0, agg.size()) / static_cast<long double>(agg.size()));
    EXPECT_NEAR(got[i], want, 1e-10 + 1e-9 * want);
  }
}

// ---------------------------------------------------------------------------
// rs_plot block-size grid hardening.

TEST(RsPlotGrid, TinySeriesErrorsInsteadOfCrashing) {
  const auto xs = random_series(64, 14);
  const auto plot = lrd::rs_plot(xs);  // hi == lo == 16: one usable size
  EXPECT_FALSE(plot.ok());
}

TEST(RsPlotGrid, SingleLevelErrorsInsteadOfCrashing) {
  const auto xs = random_series(4096, 15);
  lrd::RsOptions options;
  options.levels = 1;
  const auto plot = lrd::rs_plot(xs, options);
  EXPECT_FALSE(plot.ok());
}

TEST(RsPlotGrid, SizesStayWithinClampedRange) {
  const auto xs = random_series(1024, 16);
  lrd::RsOptions options;
  options.levels = 50;  // dense grid: unclamped lround would overshoot hi
  const auto plot = lrd::rs_plot(xs, options);
  ASSERT_TRUE(plot.ok());
  for (double l : plot.value().log10_n) {
    const double size = std::pow(10.0, l);
    EXPECT_GE(size, static_cast<double>(options.min_block_size) - 0.5);
    EXPECT_LE(size, static_cast<double>(xs.size() / options.min_blocks) + 0.5);
  }
}

// ---------------------------------------------------------------------------
// Suite sharing: shared-input results identical to standalone estimators,
// and bit-identical across executor widths.

TEST(SuiteSharing, SuiteMatchesStandaloneEstimatorsBitForBit) {
  const auto xs = fgn(5000, 0.8, 6);  // non-pow2: exercises the shared
                                      // truncated periodogram
  support::Executor ex(1);
  lrd::HurstSuiteOptions options;
  options.executor = &ex;
  const auto suite = lrd::hurst_suite(xs, options);

  const auto vt = lrd::variance_time_hurst(xs, options.variance_time);
  const auto rs = lrd::rs_hurst(xs, options.rs);
  const auto pg = lrd::periodogram_hurst(xs, options.periodogram);
  const auto wh = lrd::whittle_hurst(xs, options.whittle);
  const auto av = lrd::abry_veitch_hurst(xs, options.abry_veitch);
  ASSERT_TRUE(vt.ok() && rs.ok() && pg.ok() && wh.ok() && av.ok());

  const auto* svt = suite.find(lrd::HurstMethod::kVarianceTime);
  const auto* srs = suite.find(lrd::HurstMethod::kRoverS);
  const auto* spg = suite.find(lrd::HurstMethod::kPeriodogram);
  const auto* swh = suite.find(lrd::HurstMethod::kWhittle);
  const auto* sav = suite.find(lrd::HurstMethod::kAbryVeitch);
  ASSERT_NE(svt, nullptr);
  ASSERT_NE(srs, nullptr);
  ASSERT_NE(spg, nullptr);
  ASSERT_NE(swh, nullptr);
  ASSERT_NE(sav, nullptr);
  EXPECT_EQ(bits(svt->h), bits(vt.value().h));
  EXPECT_EQ(bits(srs->h), bits(rs.value().h));
  EXPECT_EQ(bits(spg->h), bits(pg.value().h));
  EXPECT_EQ(bits(swh->h), bits(wh.value().estimate.h));
  EXPECT_EQ(bits(sav->h), bits(av.value().estimate.h));
}

TEST(SuiteSharing, SuiteBitIdenticalAcrossExecutorWidths) {
  const auto xs = fgn(8192, 0.8, 7);
  support::Executor serial(1);
  support::Executor wide(8);
  lrd::HurstSuiteOptions a;
  a.executor = &serial;
  lrd::HurstSuiteOptions b;
  b.executor = &wide;
  const auto ra = lrd::hurst_suite(xs, a);
  const auto rb = lrd::hurst_suite(xs, b);
  ASSERT_EQ(ra.estimates.size(), rb.estimates.size());
  ASSERT_EQ(ra.estimates.size(), 5U);
  for (std::size_t i = 0; i < ra.estimates.size(); ++i) {
    EXPECT_EQ(ra.estimates[i].method, rb.estimates[i].method);
    EXPECT_EQ(bits(ra.estimates[i].h), bits(rb.estimates[i].h));
    const auto& ca = ra.estimates[i].ci95_halfwidth;
    const auto& cb = rb.estimates[i].ci95_halfwidth;
    ASSERT_EQ(ca.has_value(), cb.has_value());
    if (ca) {
      EXPECT_EQ(bits(*ca), bits(*cb));
    }
  }
}

TEST(SuiteSharing, SweepBitIdenticalAcrossExecutorWidthsAndOverloads) {
  const auto xs = fgn(8192, 0.8, 8);
  const std::vector<std::size_t> levels = {1, 2, 4, 8, 16};
  support::Executor serial(1);
  support::Executor wide(8);
  lrd::HurstSuiteOptions a;
  a.executor = &serial;
  lrd::HurstSuiteOptions b;
  b.executor = &wide;
  const auto ra = lrd::aggregated_hurst_sweep(
      xs, lrd::HurstMethod::kVarianceTime, levels, a);
  const auto rb = lrd::aggregated_hurst_sweep(
      xs, lrd::HurstMethod::kVarianceTime, levels, b);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].m, rb[i].m);
    EXPECT_EQ(bits(ra[i].estimate.h), bits(rb[i].estimate.h));
  }
  // The pyramid overload (shared across sweeps) must agree with the span
  // overload for the same sorted level set.
  const timeseries::AggregationPyramid pyr(xs, levels);
  const auto rc = lrd::aggregated_hurst_sweep(
      pyr, lrd::HurstMethod::kVarianceTime, a);
  ASSERT_EQ(rc.size(), ra.size());
  for (std::size_t i = 0; i < ra.size(); ++i)
    EXPECT_EQ(bits(rc[i].estimate.h), bits(ra[i].estimate.h));
}

}  // namespace
}  // namespace fullweb
