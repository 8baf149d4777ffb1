#include "tail/hill.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "stats/distributions.h"
#include "support/rng.h"

namespace fullweb::tail {
namespace {

std::vector<double> sample_from(const auto& dist, std::size_t n,
                                std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = dist.sample(rng);
  return xs;
}

TEST(HillPlot, HandComputedSmallCase) {
  // X_(1)=8, X_(2)=4, X_(3)=2, X_(4)=1, ...: H_{1,n} = log(8/4) = log 2,
  // so alpha_1 = 1/log 2.
  std::vector<double> xs = {8, 4, 2, 1};
  for (int i = 0; i < 96; ++i) xs.push_back(0.5);  // bulk so k_max >= 1
  const auto plot = hill_plot(xs, {});
  ASSERT_TRUE(plot.ok());
  ASSERT_GE(plot.value().k.size(), 1U);
  EXPECT_EQ(plot.value().k[0], 1U);
  EXPECT_NEAR(plot.value().alpha[0], 1.0 / std::log(2.0), 1e-12);
}

class HillRecoversAlpha : public ::testing::TestWithParam<double> {};

TEST_P(HillRecoversAlpha, OnPureParetoSample) {
  const double alpha = GetParam();
  const auto xs = sample_from(stats::Pareto(alpha, 1.0), 30000,
                              70 + static_cast<std::uint64_t>(alpha * 10));
  const auto est = hill_estimate(xs);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est.value().stabilized) << "alpha=" << alpha;
  EXPECT_NEAR(est.value().alpha, alpha, 0.12 * alpha);
}

INSTANTIATE_TEST_SUITE_P(Alphas, HillRecoversAlpha,
                         ::testing::Values(0.8, 1.2, 1.6, 2.0, 2.5));

TEST(HillEstimate, ParetoTailWithLognormalBody) {
  // Semiparametric case: only the tail is Pareto. The estimator restricted
  // to the upper tail should still find alpha.
  support::Rng rng(81);
  std::vector<double> xs;
  const stats::Lognormal body(1.0, 0.5);
  const stats::Pareto tail(1.4, 20.0);
  for (int i = 0; i < 45000; ++i) xs.push_back(body.sample(rng));
  for (int i = 0; i < 5000; ++i) xs.push_back(tail.sample(rng));
  HillOptions opts;
  opts.max_tail_fraction = 0.08;  // stay inside the Pareto region
  const auto est = hill_estimate(xs, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.value().alpha, 1.4, 0.25);
}

TEST(HillEstimate, NonStabilizingOnLognormal) {
  // A pure lognormal has no Pareto tail: the Hill plot keeps drifting. With
  // a strict stability criterion this reports NS (the paper's annotation).
  const auto xs = sample_from(stats::Lognormal(0.0, 2.0), 30000, 82);
  HillOptions opts;
  opts.stability_cv = 0.02;
  const auto est = hill_estimate(xs, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(est.value().stabilized);
}

TEST(HillEstimate, WindowBoundsReported) {
  const auto xs = sample_from(stats::Pareto(1.5, 1.0), 10000, 83);
  const auto est = hill_estimate(xs);
  ASSERT_TRUE(est.ok());
  EXPECT_GE(est.value().k_low, 10U);
  EXPECT_GT(est.value().k_high, est.value().k_low);
}

TEST(HillPlot, ErrorsOnTinySample) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_FALSE(hill_plot(xs, {}).ok());
}

TEST(HillPlot, EmptyTopSetIsInsufficientData) {
  // n_total asks for a deep tail, but the producer retained no order
  // statistics: nothing may be read, not even top_desc[0].
  std::vector<double> empty;
  empty.reserve(4);
  const auto plot = hill_plot_from_top(empty, 1000);
  ASSERT_FALSE(plot.ok());
  EXPECT_EQ(plot.error().category, "insufficient_data");
  EXPECT_FALSE(hill_plot_from_top(std::span<const double>{}, 1000).ok());
}

TEST(HillPlot, RejectsNaN) {
  // Non-positive values leave the plot, but a NaN is not a value to drop:
  // it is flagged, whatever its sign.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double nan : {kNaN, -kNaN}) {
    auto xs = sample_from(stats::Pareto(1.5, 1.0), 3000, 28);
    for (std::size_t i = 0; i < xs.size(); i += 100) xs[i] = nan;
    const auto plot = hill_plot(xs);
    ASSERT_FALSE(plot.ok());
    EXPECT_EQ(plot.error().category, "invalid_argument");
    const auto est = hill_estimate(xs);
    ASSERT_FALSE(est.ok());
    EXPECT_EQ(est.error().category, "invalid_argument");
  }
}

TEST(HillPlot, IgnoresNonPositiveSamples) {
  auto xs = sample_from(stats::Pareto(1.5, 1.0), 5000, 84);
  xs.push_back(-1.0);
  xs.push_back(0.0);
  const auto plot = hill_plot(xs, {});
  ASSERT_TRUE(plot.ok());
  const auto est = hill_estimate(xs);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.value().alpha, 1.5, 0.3);
}

TEST(HillPlot, TiesAtTopYieldNaNNotCrash) {
  std::vector<double> xs(200, 100.0);  // massive tie at the max
  for (int i = 0; i < 800; ++i) xs.push_back(1.0 + i * 0.001);
  const auto plot = hill_plot(xs, {});
  ASSERT_TRUE(plot.ok());
  // First k values (inside the tie run) are NaN-flagged.
  EXPECT_TRUE(std::isnan(plot.value().alpha[0]));
}

/// The pre-selection reference: sort ALL positive samples descending, then
/// run the identical Hill recursion. hill_plot() only nth_element-selects
/// and sorts the top k_max + 1 values; since selection preserves the
/// multiset of the prefix, both must agree bit for bit.
HillPlot full_sort_hill_plot(std::span<const double> xs,
                             const HillOptions& options) {
  std::vector<double> sorted;
  for (double v : xs)
    if (v > 0.0) sorted.push_back(v);
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const std::size_t n = sorted.size();
  auto k_max = static_cast<std::size_t>(
      std::floor(options.max_tail_fraction * static_cast<double>(n)));
  if (n > 0 && k_max > n - 1) k_max = n - 1;
  HillPlot plot;
  double sum_log = 0.0;
  for (std::size_t k = 1; k <= k_max; ++k) {
    sum_log += std::log(sorted[k - 1]);
    const double h = sum_log / static_cast<double>(k) - std::log(sorted[k]);
    plot.k.push_back(k);
    plot.alpha.push_back(h > kHillTieEpsilon
                             ? 1.0 / h
                             : std::numeric_limits<double>::quiet_NaN());
  }
  return plot;
}

TEST(HillPlot, SelectionMatchesFullSortExactly) {
  support::Rng rng(86);
  const stats::Pareto pareto(1.3, 1.0);
  const stats::Lognormal lognormal(0.5, 1.5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 150 + rng.below(4000);
    std::vector<double> xs(n);
    for (auto& x : xs) {
      x = (rng.below(2) == 0) ? pareto.sample(rng) : lognormal.sample(rng);
      // Coarse rounding on some trials forces ties, including at the top.
      if (trial % 3 == 0) x = std::ceil(x * 4.0) / 4.0;
    }
    if (trial % 4 == 0) xs[0] = -1.0;  // non-positive values get filtered
    HillOptions opts;
    opts.max_tail_fraction = (trial % 2 == 0) ? 0.15 : 1.5;  // 1.5 clamps
    const auto plot = hill_plot(xs, opts);
    ASSERT_TRUE(plot.ok()) << "trial=" << trial;
    const auto reference = full_sort_hill_plot(xs, opts);
    ASSERT_EQ(plot.value().k, reference.k) << "trial=" << trial;
    ASSERT_EQ(plot.value().alpha.size(), reference.alpha.size());
    for (std::size_t i = 0; i < reference.alpha.size(); ++i) {
      const double got = plot.value().alpha[i];
      const double want = reference.alpha[i];
      if (std::isnan(want)) {
        ASSERT_TRUE(std::isnan(got)) << "trial=" << trial << " i=" << i;
      } else {
        ASSERT_EQ(got, want) << "trial=" << trial << " i=" << i;  // exact
      }
    }
  }
}

TEST(HillPlot, KRangeRespectsTailFraction) {
  const auto xs = sample_from(stats::Pareto(2.0, 1.0), 10000, 85);
  HillOptions opts;
  opts.max_tail_fraction = 0.14;  // the paper's Figure 12 restriction
  const auto plot = hill_plot(xs, opts);
  ASSERT_TRUE(plot.ok());
  EXPECT_LE(plot.value().k.back(), 1400U);
  EXPECT_GT(plot.value().k.back(), 1350U);
}

}  // namespace
}  // namespace fullweb::tail
