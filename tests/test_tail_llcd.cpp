#include "tail/llcd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/regression.h"
#include "support/rng.h"

namespace fullweb::tail {
namespace {

std::vector<double> pareto_sample(double alpha, double k, std::size_t n,
                                  std::uint64_t seed) {
  support::Rng rng(seed);
  const stats::Pareto p(alpha, k);
  std::vector<double> xs(n);
  for (auto& x : xs) x = p.sample(rng);
  return xs;
}

TEST(LlcdPlot, PointsAreLogLogCcdf) {
  const std::vector<double> xs = {1, 10, 100, 1000};
  const auto plot = llcd_plot(xs);
  ASSERT_TRUE(plot.ok());
  // Last point (CCDF = 0) dropped: 3 points remain.
  ASSERT_EQ(plot.value().log10_x.size(), 3U);
  EXPECT_DOUBLE_EQ(plot.value().log10_x[0], 0.0);
  EXPECT_NEAR(plot.value().log10_ccdf[0], std::log10(0.75), 1e-12);
  EXPECT_NEAR(plot.value().log10_ccdf[2], std::log10(0.25), 1e-12);
}

TEST(LlcdPlot, SkipsNonPositiveValues) {
  const std::vector<double> xs = {-5, 0, 1, 2, 3};
  const auto plot = llcd_plot(xs);
  ASSERT_TRUE(plot.ok());
  EXPECT_EQ(plot.value().log10_x.size(), 2U);  // 1 and 2 (3 is the last)
}

TEST(LlcdPlot, LogXIsAscending) {
  // llcd_curvature reads its cut quantile straight from log10_x, so the
  // plot must emit it in ascending order whatever the input order: here
  // integer ties, zeros, negatives and neighbouring doubles, unsorted.
  auto xs = pareto_sample(1.2, 1.0, 2000, 17);
  for (std::size_t i = 0; i < xs.size(); i += 2) xs[i] = std::ceil(xs[i]);
  for (std::size_t i = 0; i < 50; ++i) {
    xs.push_back(0.0);
    xs.push_back(-static_cast<double>(i));
    xs.push_back(std::nextafter(1.0 + static_cast<double>(i), 0.0));
    xs.push_back(1.0 + static_cast<double>(i));
  }
  const auto plot = llcd_plot(xs);
  ASSERT_TRUE(plot.ok());
  const auto& lx = plot.value().log10_x;
  ASSERT_GT(lx.size(), 100U);
  for (std::size_t i = 1; i < lx.size(); ++i)
    ASSERT_LE(lx[i - 1], lx[i]) << "i=" << i;
}

TEST(LlcdPlot, ErrorsOnDegenerateInput) {
  EXPECT_FALSE(llcd_plot(std::vector<double>{}).ok());
  EXPECT_FALSE(llcd_plot(std::vector<double>{1.0}).ok());
  EXPECT_FALSE(llcd_plot(std::vector<double>{-1.0, -2.0, 0.0}).ok());
}

class LlcdRecoversAlpha : public ::testing::TestWithParam<double> {};

TEST_P(LlcdRecoversAlpha, OnPureParetoSample) {
  const double alpha = GetParam();
  const auto xs =
      pareto_sample(alpha, 1.0, 30000, 50 + static_cast<std::uint64_t>(alpha * 10));
  const auto fit = llcd_fit(xs);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().alpha, alpha, 0.15 * alpha);
  EXPECT_GT(fit.value().r_squared, 0.97);
}

INSTANTIATE_TEST_SUITE_P(Alphas, LlcdRecoversAlpha,
                         ::testing::Values(0.8, 1.0, 1.5, 2.0, 2.5));

TEST(LlcdFit, ExplicitThetaRestrictsRange) {
  // Body: uniform junk below 10; tail: Pareto(1.5) above 10.
  support::Rng rng(61);
  std::vector<double> xs;
  const stats::Pareto tail(1.5, 10.0);
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.uniform(0.1, 10.0));
  for (int i = 0; i < 5000; ++i) xs.push_back(tail.sample(rng));

  LlcdOptions opts;
  opts.theta = 20.0;  // inside the Pareto region
  const auto fit = llcd_fit(xs, opts);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().alpha, 1.5, 0.2);
  EXPECT_DOUBLE_EQ(fit.value().theta, 20.0);
}

TEST(LlcdFit, ExplicitThetaBelowTheSampleKeepsEveryPoint) {
  // Non-positive samples never enter the plot, but an explicit theta counts
  // every raw sample at or above it: all 1000 positives at theta = 0.5, and
  // the zeros too at theta = 0 (log10 0 = -inf admits every plot point).
  auto xs = pareto_sample(1.5, 1.0, 1000, 63);
  for (int i = 0; i < 5; ++i) {
    xs.push_back(0.0);
    xs.push_back(-1.0 - i);
  }
  const auto plot = llcd_plot(xs);
  ASSERT_TRUE(plot.ok());
  for (const double theta : {0.5, 0.0}) {
    LlcdOptions opts;
    opts.theta = theta;
    const auto fit = llcd_fit(xs, opts);
    ASSERT_TRUE(fit.ok()) << theta;
    EXPECT_EQ(fit.value().points, plot.value().log10_x.size()) << theta;
    EXPECT_EQ(fit.value().tail_samples, theta > 0.0 ? 1000u : 1005u);
  }
}

TEST(LlcdFit, NegativeExplicitThetaErrors) {
  // log10 of a negative theta is NaN, which no plot point reaches.
  const auto xs = pareto_sample(1.5, 1.0, 1000, 64);
  LlcdOptions opts;
  opts.theta = -1.0;
  const auto fit = llcd_fit(xs, opts);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.error().category, "insufficient_data");
}

TEST(LlcdFit, TailFractionSelectsQuantileCutoff) {
  const auto xs = pareto_sample(1.2, 1.0, 20000, 62);
  LlcdOptions opts;
  opts.tail_fraction = 0.10;
  const auto fit = llcd_fit(xs, opts);
  ASSERT_TRUE(fit.ok());
  // theta should sit near the 90th percentile: (0.1)^(-1/1.2) ~= 6.8.
  EXPECT_NEAR(fit.value().theta, std::pow(0.1, -1.0 / 1.2), 1.5);
  EXPECT_NEAR(fit.value().alpha, 1.2, 0.25);
}

TEST(LlcdFit, ExponentialSlopeSteepensIntoTheTail) {
  // Exponential is NOT heavy-tailed: its LLCD slope keeps steepening, so
  // the fitted "alpha" grows as the fit window moves deeper into the tail —
  // whereas a genuine Pareto slope stays put. (This is exactly why the
  // paper backs LLCD fits with the curvature test.)
  support::Rng rng(63);
  const stats::Exponential e(1.0);
  std::vector<double> exp_xs(50000);
  for (auto& x : exp_xs) x = e.sample(rng);
  const stats::Pareto p(1.5, 1.0);
  std::vector<double> par_xs(50000);
  for (auto& x : par_xs) x = p.sample(rng);

  LlcdOptions shallow;
  shallow.tail_fraction = 0.5;
  LlcdOptions deep;
  deep.tail_fraction = 0.02;

  const auto exp_shallow = llcd_fit(exp_xs, shallow);
  const auto exp_deep = llcd_fit(exp_xs, deep);
  ASSERT_TRUE(exp_shallow.ok());
  ASSERT_TRUE(exp_deep.ok());
  EXPECT_GT(exp_deep.value().alpha, 1.8 * exp_shallow.value().alpha);

  const auto par_shallow = llcd_fit(par_xs, shallow);
  const auto par_deep = llcd_fit(par_xs, deep);
  ASSERT_TRUE(par_shallow.ok());
  ASSERT_TRUE(par_deep.ok());
  EXPECT_NEAR(par_deep.value().alpha, par_shallow.value().alpha,
              0.35 * par_shallow.value().alpha);
}

TEST(LlcdFit, StandardErrorShrinksWithSampleSize) {
  const auto small = pareto_sample(1.5, 1.0, 2000, 64);
  const auto large = pareto_sample(1.5, 1.0, 100000, 65);
  const auto fs = llcd_fit(small);
  const auto fl = llcd_fit(large);
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE(fl.ok());
  EXPECT_LT(fl.value().stderr_alpha, fs.value().stderr_alpha);
}

TEST(LlcdFit, InsufficientTailPointsErrors) {
  // Many ties: only a handful of distinct values -> too few plot points.
  std::vector<double> xs(1000, 5.0);
  xs.push_back(6.0);
  xs.push_back(7.0);
  EXPECT_FALSE(llcd_fit(xs).ok());
}

TEST(LlcdFit, VarianceClassification) {
  LlcdFit fit;
  fit.alpha = 1.5;
  EXPECT_TRUE(fit.infinite_variance());
  EXPECT_FALSE(fit.infinite_mean());
  fit.alpha = 0.9;
  EXPECT_TRUE(fit.infinite_mean());
  fit.alpha = 2.5;
  EXPECT_FALSE(fit.infinite_variance());
}

TEST(LlcdFit, TailSampleCountReported) {
  const auto xs = pareto_sample(2.0, 1.0, 10000, 66);
  LlcdOptions opts;
  opts.tail_fraction = 0.25;
  const auto fit = llcd_fit(xs, opts);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(static_cast<double>(fit.value().tail_samples), 2500.0, 150.0);
}

// ---------------------------------------------------------------------------
// The plot and the fit against a test-local copy of their construction,
// the reference any faster construction must match bit for bit: the plot
// from an ECDF over a std::sort copy, and the fit's quantile thetas from a
// second std::sort of the positive samples.

/// The plot by its definition: sort, collapse ties to the rank of their last
/// occurrence, F = rank / n, then log10 of every distinct positive value
/// except the largest (where the CCDF is 0).
support::Result<LlcdPlot> reference_plot(std::span<const double> xs) {
  if (xs.size() < 2) return support::Error::insufficient_data("need n >= 2");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  std::vector<double> x, f;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i + 1 < sorted.size() && sorted[i + 1] == sorted[i]) continue;
    x.push_back(sorted[i]);
    f.push_back(static_cast<double>(i + 1) / n);
  }
  LlcdPlot plot;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    if (!(x[i] > 0.0)) continue;
    plot.log10_x.push_back(std::log10(x[i]));
    plot.log10_ccdf.push_back(std::log10(1.0 - f[i]));
  }
  if (plot.log10_x.size() < 2)
    return support::Error::insufficient_data("fewer than 2 positive points");
  return plot;
}

/// The regression over the plot points with log10 x >= log10 theta.
std::optional<LlcdFit> reference_fit_above(const LlcdPlot& plot, double theta,
                                           std::size_t min_points) {
  std::vector<double> lx, ly;
  for (std::size_t i = 0; i < plot.log10_x.size(); ++i) {
    if (plot.log10_x[i] >= std::log10(theta)) {
      lx.push_back(plot.log10_x[i]);
      ly.push_back(plot.log10_ccdf[i]);
    }
  }
  if (lx.size() < min_points) return std::nullopt;
  const auto f = stats::ols(lx, ly);
  if (!(f.slope < 0.0)) return std::nullopt;
  LlcdFit fit;
  fit.alpha = -f.slope;
  fit.stderr_alpha = f.stderr_slope;
  fit.r_squared = f.r_squared;
  fit.theta = theta;
  fit.points = lx.size();
  return fit;
}

support::Result<LlcdFit> reference_fit(std::span<const double> xs,
                                       const LlcdOptions& options) {
  auto plot_r = reference_plot(xs);
  if (!plot_r) return plot_r.error();
  const LlcdPlot& plot = plot_r.value();
  const auto with_tail_samples = [&](LlcdFit fit) {
    fit.tail_samples = static_cast<std::size_t>(std::count_if(
        xs.begin(), xs.end(), [&](double v) { return v >= fit.theta; }));
    return fit;
  };
  if (!std::isnan(options.theta)) {
    const auto a = reference_fit_above(plot, options.theta, options.min_points);
    if (!a) return support::Error::insufficient_data("too few above theta");
    return with_tail_samples(*a);
  }
  std::vector<double> positive;
  for (double v : xs)
    if (v > 0.0) positive.push_back(v);
  if (positive.size() < options.min_points)
    return support::Error::insufficient_data("too few positive samples");
  std::sort(positive.begin(), positive.end());
  if (options.tail_fraction > 0.0) {
    const double theta = stats::quantile_sorted(
        positive, std::clamp(1.0 - options.tail_fraction, 0.0, 1.0));
    const auto a = reference_fit_above(plot, theta, options.min_points);
    if (!a) return support::Error::insufficient_data("too few in tail");
    return with_tail_samples(*a);
  }
  std::optional<LlcdFit> best;
  for (double frac : {0.50, 0.40, 0.30, 0.25, 0.20, 0.15, 0.10, 0.07, 0.05,
                      0.03, 0.02, 0.01}) {
    const double theta = stats::quantile_sorted(positive, 1.0 - frac);
    const auto a = reference_fit_above(plot, theta, options.min_points);
    if (a && (!best || a->r_squared > best->r_squared)) best = a;
  }
  if (!best) return support::Error::insufficient_data("no tail fraction fits");
  return with_tail_samples(*best);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One random sample of the kind `kind` names: continuous, on a lattice with
/// heavy ties, few-valued, signed with zeros of both signs among ties, one
/// of those four already in ascending order, or one value repeated.
std::vector<double> mixed_sample(int kind, std::size_t n, support::Rng& rng) {
  if (kind == 6) {
    auto xs = mixed_sample(static_cast<int>(rng.below(6)), n, rng);
    std::sort(xs.begin(), xs.end());
    return xs;
  }
  if (kind == 7) {
    const double values[] = {1.0, 3.5, 0.0, -0.0, -2.0};
    return std::vector<double>(n, values[rng.below(std::size(values))]);
  }
  const stats::Pareto pareto(0.8 + 2.0 * rng.uniform(), 1.0);
  const stats::Lognormal lognormal(3.0 * rng.uniform() - 1.0,
                                   0.3 + 2.0 * rng.uniform());
  std::vector<double> xs(n);
  for (auto& x : xs) {
    switch (kind) {
      case 0: x = pareto.sample(rng); break;
      case 1: x = lognormal.sample(rng); break;
      case 2: x = std::ceil(pareto.sample(rng)); break;        // integer ties
      case 3: x = static_cast<double>(1 + rng.below(6)); break;  // few values
      case 4:  // continuous, both signs
        x = (rng.uniform() < 0.4 ? -1.0 : 1.0) * lognormal.sample(rng);
        break;
      default: {  // integers with +0.0, -0.0 and negatives among the ties
        const double v = std::floor(pareto.sample(rng)) - 1.0;
        const double u = rng.uniform();
        x = u < 0.1 ? -0.0 : u < 0.25 ? -v : v;
        break;
      }
    }
  }
  return xs;
}

TEST(LlcdReference, PlotAndFitMatchBitForBit) {
  support::Rng rng(2024);
  std::size_t plots = 0;
  std::size_t fits = 0;
  for (std::size_t c = 0; c < 1500; ++c) {
    // From case 1,200 on, samples are already ascending or all equal.
    const int kind =
        c < 1200 ? static_cast<int>(c % 6) : 6 + static_cast<int>(c % 2);
    const std::size_t n = c % 4 == 3 ? 2 + rng.below(4999) : 2 + rng.below(400);
    const auto xs = mixed_sample(kind, n, rng);

    const auto plot = llcd_plot(xs);
    const auto want_plot = reference_plot(xs);
    ASSERT_EQ(plot.ok(), want_plot.ok()) << "case " << c << " n " << n;
    if (plot.ok()) {
      ++plots;
      const auto& got = plot.value();
      const auto& want = want_plot.value();
      ASSERT_EQ(got.log10_x.size(), want.log10_x.size()) << "case " << c;
      ASSERT_EQ(got.log10_ccdf.size(), want.log10_ccdf.size()) << "case " << c;
      for (std::size_t i = 0; i < want.log10_x.size(); ++i) {
        ASSERT_EQ(bits(got.log10_x[i]), bits(want.log10_x[i]))
            << "case " << c << " i " << i;
        ASSERT_EQ(bits(got.log10_ccdf[i]), bits(want.log10_ccdf[i]))
            << "case " << c << " i " << i;
      }
    } else {
      EXPECT_EQ(plot.error().category, want_plot.error().category);
    }

    // Auto theta, a tail fraction, and an explicit theta: a sample value
    // (ties at theta), zero of either sign, a negative, or past the maximum.
    LlcdOptions by_fraction;
    by_fraction.tail_fraction = 0.02 + 0.6 * rng.uniform();
    LlcdOptions by_theta;
    const double explicit_thetas[] = {xs[rng.below(n)], 0.0, -0.0, -1.0,
                                      1e-300, 1e9};
    by_theta.theta = explicit_thetas[rng.below(std::size(explicit_thetas))];
    for (LlcdOptions opts : {LlcdOptions{}, by_fraction, by_theta}) {
      opts.min_points = c % 3 == 0 ? 2 : 10;
      const auto got = llcd_fit(xs, opts);
      const auto want = reference_fit(xs, opts);
      ASSERT_EQ(got.ok(), want.ok())
          << "case " << c << " n " << n << " theta " << opts.theta
          << " fraction " << opts.tail_fraction;
      if (!want.ok()) {
        EXPECT_EQ(got.error().category, want.error().category) << "case " << c;
        continue;
      }
      ++fits;
      const LlcdFit& g = got.value();
      const LlcdFit& w = want.value();
      EXPECT_EQ(bits(g.alpha), bits(w.alpha)) << "case " << c;
      EXPECT_EQ(bits(g.stderr_alpha), bits(w.stderr_alpha)) << "case " << c;
      EXPECT_EQ(bits(g.r_squared), bits(w.r_squared)) << "case " << c;
      EXPECT_EQ(bits(g.theta), bits(w.theta)) << "case " << c;
      EXPECT_EQ(g.points, w.points) << "case " << c;
      EXPECT_EQ(g.tail_samples, w.tail_samples) << "case " << c;
    }
  }
  // Both outcomes must be well covered for the comparison to mean much.
  EXPECT_GT(plots, 900U);
  EXPECT_GT(fits, 1500U);
}

// A NaN has no place on the log axis and no rank, and dropping it silently
// shifts every CCDF value: Pareto(1.5) with 1% NaN read alpha = 1.53, not
// 1.51. Both NaN signs are checked, since a sort puts them at opposite ends.
std::vector<double> pareto_with_nan(double nan) {
  auto xs = pareto_sample(1.5, 1.0, 3000, 67);
  for (std::size_t i = 0; i < xs.size(); i += 100) xs[i] = nan;
  return xs;
}

TEST(LlcdPlot, RejectsNaN) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double nan : {kNaN, -kNaN}) {
    const auto plot = llcd_plot(pareto_with_nan(nan));
    ASSERT_FALSE(plot.ok());
    EXPECT_EQ(plot.error().category, "invalid_argument");
  }
}

TEST(LlcdFit, RejectsNaN) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  LlcdOptions by_fraction;
  by_fraction.tail_fraction = 0.1;
  LlcdOptions by_theta;
  by_theta.theta = 2.0;
  for (const double nan : {kNaN, -kNaN}) {
    for (const LlcdOptions& opts : {LlcdOptions{}, by_fraction, by_theta}) {
      const auto fit = llcd_fit(pareto_with_nan(nan), opts);
      ASSERT_FALSE(fit.ok());
      EXPECT_EQ(fit.error().category, "invalid_argument");
    }
  }
}

}  // namespace
}  // namespace fullweb::tail
