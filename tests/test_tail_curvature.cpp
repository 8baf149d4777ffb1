#include "tail/curvature.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <vector>

#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/regression.h"
#include "support/rng.h"
#include "tail/llcd.h"

namespace fullweb::tail {
namespace {

std::vector<double> sample_from(const auto& dist, std::size_t n,
                                std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = dist.sample(rng);
  return xs;
}

TEST(LlcdCurvature, ParetoNearZeroLognormalNegative) {
  // A Pareto LLCD is straight (curvature ~ 0); a wide lognormal LLCD bends
  // downward (negative quadratic coefficient).
  const auto pareto = sample_from(stats::Pareto(1.5, 1.0), 20000, 1);
  const auto lognormal = sample_from(stats::Lognormal(0.0, 1.0), 20000, 2);
  const auto cp = llcd_curvature(pareto, 0.5);
  const auto cl = llcd_curvature(lognormal, 0.5);
  ASSERT_TRUE(cp.ok());
  ASSERT_TRUE(cl.ok());
  EXPECT_NEAR(cp.value(), 0.0, 0.3);
  EXPECT_LT(cl.value(), -0.5);
  EXPECT_LT(cl.value(), cp.value());
}

TEST(LlcdCurvature, ErrorsOnTinySample) {
  EXPECT_FALSE(llcd_curvature(std::vector<double>{1, 2, 3}, 0.5).ok());
}

TEST(LlcdCurvature, RejectsNaNTailFraction) {
  const auto xs = sample_from(stats::Pareto(1.5, 1.0), 1000, 20);
  const auto c = llcd_curvature(xs, std::numeric_limits<double>::quiet_NaN());
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.error().category, "invalid_argument");
}

/// The statistic by its definition: the LLCD plot, the (1 - tail_fraction)
/// quantile of its log10 x as the cut, and the quadratic fit over every
/// plot point at or above the cut.
support::Result<double> reference_curvature(std::span<const double> xs,
                                            double tail_fraction) {
  auto plot_r = llcd_plot(xs);
  if (!plot_r) return plot_r.error();
  const LlcdPlot& plot = plot_r.value();
  const double cut = stats::quantile_sorted(
      plot.log10_x, std::clamp(1.0 - tail_fraction, 0.0, 1.0));
  std::vector<double> lx, ly;
  for (std::size_t i = 0; i < plot.log10_x.size(); ++i) {
    if (plot.log10_x[i] >= cut) {
      lx.push_back(plot.log10_x[i]);
      ly.push_back(plot.log10_ccdf[i]);
    }
  }
  if (lx.size() < 10)
    return support::Error::insufficient_data("fewer than 10 tail points");
  const auto fit = stats::quadratic_fit(lx, ly);
  if (fit.n < 10) return support::Error::numeric("quadratic fit failed");
  return fit.c2;
}

/// One random sample of the kind `kind` names: continuous or on a lattice
/// with heavy ties, with or without zeros (of both signs) and negatives.
std::vector<double> property_sample(int kind, std::size_t n, support::Rng& rng) {
  const stats::Pareto pareto(0.8 + 2.0 * rng.uniform(), 1.0);
  const stats::Lognormal lognormal(3.0 * rng.uniform() - 1.0,
                                   0.3 + 2.0 * rng.uniform());
  std::vector<double> xs(n);
  for (auto& x : xs) {
    switch (kind) {
      case 0: x = pareto.sample(rng); break;
      case 1: x = lognormal.sample(rng); break;
      case 2: x = std::ceil(pareto.sample(rng)); break;        // ties
      case 3: x = static_cast<double>(1 + rng.below(6)); break;  // few values
      case 4:  // continuous, both signs
        x = (rng.uniform() < 0.4 ? -1.0 : 1.0) * lognormal.sample(rng);
        break;
      case 5: {  // lattice with +0.0, -0.0 and negatives among the ties
        const double v = std::floor(pareto.sample(rng)) - 1.0;
        const double u = rng.uniform();
        x = u < 0.1 ? -0.0 : u < 0.25 ? -v : v;
        break;
      }
      default: x = 0.25 * std::floor(4.0 * lognormal.sample(rng)); break;
    }
  }
  return xs;
}

TEST(LlcdCurvature, MatchesReferenceBitForBit) {
  // llcd_curvature never builds the LLCD plot: it reads the sorted sample,
  // takes log10 x only above the cut and the CCDF logs from a table by
  // rank. Its result and its ok/error outcome must equal the plot-based
  // definition's exactly, on continuous and tied samples, with zeros and
  // negatives, and on tails too short to fit.
  static constexpr double kFractions[] = {0.5, 0.2, 0.05, 0.9, 1.0,
                                          0.0, 1.5, -0.5, 0.37};
  support::Rng rng(2026);
  std::size_t fitted = 0;
  std::size_t short_tail = 0;
  for (std::size_t c = 0; c < 1800; ++c) {
    const int kind = static_cast<int>(c % 7);
    const std::size_t n =
        c % 60 == 59 ? 2000 + rng.below(3000) : 2 + rng.below(400);
    const auto xs = property_sample(kind, n, rng);
    const double tf = kFractions[rng.below(std::size(kFractions))];
    const auto got = llcd_curvature(xs, tf);
    const auto want = reference_curvature(xs, tf);
    ASSERT_EQ(got.ok(), want.ok())
        << "case " << c << " kind " << kind << " n " << n << " tf " << tf;
    if (!want.ok()) {
      EXPECT_EQ(got.error().category, want.error().category) << "case " << c;
      short_tail += want.error().category == "insufficient_data";
      continue;
    }
    ++fitted;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.value()),
              std::bit_cast<std::uint64_t>(want.value()))
        << "case " << c << " kind " << kind << " n " << n << " tf " << tf;
  }
  // Both outcomes must be well covered for the comparison to mean much.
  EXPECT_GT(fitted, 600U);
  EXPECT_GT(short_tail, 200U);
}

TEST(CurvatureTest, ParetoSampleNotRejectedUnderParetoNull) {
  const auto xs = sample_from(stats::Pareto(1.6, 1.0), 5000, 3);
  support::Rng rng(4);
  CurvatureOptions opts;
  opts.model = TailModel::kPareto;
  opts.replicates = 99;
  const auto r = curvature_test(xs, rng, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().p_value, 0.05);
  EXPECT_FALSE(r.value().rejected_at_5pct);
  EXPECT_NEAR(r.value().param1, 1.6, 0.3);  // fitted alpha
}

TEST(CurvatureTest, LognormalSampleNotRejectedUnderLognormalNull) {
  const auto xs = sample_from(stats::Lognormal(1.0, 1.2), 5000, 5);
  support::Rng rng(6);
  CurvatureOptions opts;
  opts.model = TailModel::kLognormal;
  opts.replicates = 99;
  const auto r = curvature_test(xs, rng, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().p_value, 0.05);
  EXPECT_NEAR(r.value().param1, 1.0, 0.1);  // mu
  EXPECT_NEAR(r.value().param2, 1.2, 0.1);  // sigma
}

TEST(CurvatureTest, LognormalRejectedUnderParetoNullEventually) {
  // A strongly bending lognormal should be flagged as non-Pareto: its
  // curvature falls outside the Pareto reference distribution.
  const auto xs = sample_from(stats::Lognormal(0.0, 0.6), 8000, 7);
  support::Rng rng(8);
  CurvatureOptions opts;
  opts.model = TailModel::kPareto;
  opts.replicates = 99;
  const auto r = curvature_test(xs, rng, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().rejected_at_5pct);
}

TEST(CurvatureTest, AlphaOverrideChangesP) {
  // The paper's observation: the Pareto p-value is sensitive to the
  // plugged-in alpha. An absurd alpha should produce a tiny p-value.
  const auto xs = sample_from(stats::Pareto(1.5, 1.0), 5000, 9);
  support::Rng rng_a(10);
  support::Rng rng_b(10);  // same stream: isolate the alpha effect
  CurvatureOptions fitted;
  fitted.replicates = 99;
  CurvatureOptions forced;
  forced.replicates = 99;
  forced.alpha_override = 6.0;
  const auto pa = curvature_test(xs, rng_a, fitted);
  const auto pb = curvature_test(xs, rng_b, forced);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  EXPECT_DOUBLE_EQ(pb.value().param1, 6.0);
  EXPECT_NE(pa.value().p_value, pb.value().p_value);
}

TEST(CurvatureTest, SeedSensitivityExists) {
  // Second paper observation: same data, same alpha, different Monte-Carlo
  // sample -> (slightly) different p-value.
  const auto xs = sample_from(stats::Pareto(1.3, 1.0), 3000, 11);
  support::Rng rng_a(12);
  support::Rng rng_b(13);
  CurvatureOptions opts;
  opts.replicates = 49;
  const auto pa = curvature_test(xs, rng_a, opts);
  const auto pb = curvature_test(xs, rng_b, opts);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  // They may coincide by chance, but the machinery must at least run both;
  // verify both are valid probabilities.
  EXPECT_GT(pa.value().p_value, 0.0);
  EXPECT_LE(pa.value().p_value, 1.0);
  EXPECT_GT(pb.value().p_value, 0.0);
  EXPECT_LE(pb.value().p_value, 1.0);
}

TEST(CurvatureTest, ErrorsOnSmallSample) {
  const auto xs = sample_from(stats::Pareto(1.5, 1.0), 30, 14);
  support::Rng rng(15);
  EXPECT_FALSE(curvature_test(xs, rng, {}).ok());
}

TEST(CurvatureTest, RejectsBadAlphaOverride) {
  const auto xs = sample_from(stats::Pareto(1.5, 1.0), 1000, 16);
  support::Rng rng(17);
  CurvatureOptions opts;
  opts.alpha_override = -1.0;
  EXPECT_FALSE(curvature_test(xs, rng, opts).ok());
}

TEST(CurvatureTest, RejectsZeroReplicates) {
  // No simulation gives no reference distribution, so no p-value.
  const auto xs = sample_from(stats::Pareto(1.5, 1.0), 1000, 21);
  support::Rng rng(22);
  CurvatureOptions opts;
  opts.replicates = 0;
  const auto r = curvature_test(xs, rng, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().category, "invalid_argument");
}

TEST(CurvatureTest, RejectsNaNTailFraction) {
  const auto xs = sample_from(stats::Pareto(1.5, 1.0), 1000, 23);
  for (const TailModel model : {TailModel::kPareto, TailModel::kLognormal}) {
    support::Rng rng(24);
    CurvatureOptions opts;
    opts.model = model;
    opts.replicates = 19;
    opts.tail_fraction = std::numeric_limits<double>::quiet_NaN();
    const auto r = curvature_test(xs, rng, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().category, "invalid_argument");
  }
}

TEST(CurvatureTest, ReportsReplicateCount) {
  const auto xs = sample_from(stats::Pareto(2.0, 1.0), 2000, 18);
  support::Rng rng(19);
  CurvatureOptions opts;
  opts.replicates = 49;
  const auto r = curvature_test(xs, rng, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().replicates, 49U);
}

}  // namespace
}  // namespace fullweb::tail
