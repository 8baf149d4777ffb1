// Tests for fractional Gaussian noise synthesis and the wavelet transform.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/acf.h"
#include "stats/descriptive.h"
#include "support/rng.h"
#include "timeseries/fgn.h"
#include "timeseries/wavelet.h"

namespace fullweb::timeseries {
namespace {

TEST(FgnAutocovariance, WhiteNoiseAtHalf) {
  EXPECT_DOUBLE_EQ(fgn_autocovariance(0.5, 0), 1.0);
  for (std::size_t k = 1; k <= 5; ++k)
    EXPECT_NEAR(fgn_autocovariance(0.5, k), 0.0, 1e-12);
}

TEST(FgnAutocovariance, PositiveForPersistentH) {
  for (std::size_t k = 1; k <= 10; ++k)
    EXPECT_GT(fgn_autocovariance(0.8, k), 0.0);
}

TEST(FgnAutocovariance, NegativeForAntipersistentH) {
  EXPECT_LT(fgn_autocovariance(0.3, 1), 0.0);
}

TEST(FgnAutocovariance, HyperbolicDecayRate) {
  // gamma(k) ~ H(2H-1) k^{2H-2}: check the ratio at large lags.
  const double h = 0.8;
  const double g100 = fgn_autocovariance(h, 100);
  const double g200 = fgn_autocovariance(h, 200);
  EXPECT_NEAR(g200 / g100, std::pow(2.0, 2.0 * h - 2.0), 0.01);
}

TEST(GenerateFgn, RejectsBadParameters) {
  support::Rng rng(1);
  EXPECT_FALSE(generate_fgn(100, 0.0, 1.0, rng).ok());
  EXPECT_FALSE(generate_fgn(100, 1.0, 1.0, rng).ok());
  EXPECT_FALSE(generate_fgn(100, 0.7, -1.0, rng).ok());
}

TEST(GenerateFgn, EdgeLengths) {
  support::Rng rng(2);
  EXPECT_TRUE(generate_fgn(0, 0.7, 1.0, rng).ok());
  const auto one = generate_fgn(1, 0.7, 1.0, rng);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().size(), 1U);
}

TEST(GenerateFgn, MarginalMomentsMatch) {
  support::Rng rng(3);
  const auto xs = generate_fgn(1 << 16, 0.75, 2.0, rng);
  ASSERT_TRUE(xs.ok());
  EXPECT_NEAR(stats::mean(xs.value()), 0.0, 0.35);  // LRD mean converges slowly
  EXPECT_NEAR(stats::stddev(xs.value()), 2.0, 0.15);
}

class FgnAcfMatchesTheory : public ::testing::TestWithParam<double> {};

TEST_P(FgnAcfMatchesTheory, EmpiricalAcfTracksTheoretical) {
  const double h = GetParam();
  support::Rng rng(40 + static_cast<std::uint64_t>(h * 100));
  const auto xs = generate_fgn(1 << 17, h, 1.0, rng);
  ASSERT_TRUE(xs.ok());
  const auto r = stats::acf(xs.value(), 10);
  for (std::size_t k = 1; k <= 10; ++k) {
    EXPECT_NEAR(r[k], fgn_autocovariance(h, k), 0.05)
        << "H=" << h << " lag=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(HurstValues, FgnAcfMatchesTheory,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8));

TEST(GenerateFgn, StrongLrdAcfWithinBiasBand) {
  // At H = 0.9 the biased ACF estimator systematically undershoots the
  // theoretical curve by O(n^{2H-2}) ~= 0.1 at n = 2^17 (mean estimation
  // absorbs low-frequency energy) — allow that bias band.
  support::Rng rng(130);
  const auto xs = generate_fgn(1 << 17, 0.9, 1.0, rng);
  ASSERT_TRUE(xs.ok());
  const auto r = stats::acf(xs.value(), 10);
  for (std::size_t k = 1; k <= 10; ++k) {
    const double theory = fgn_autocovariance(0.9, k);
    EXPECT_LT(r[k], theory + 0.05) << "lag " << k;
    EXPECT_GT(r[k], theory - 0.15) << "lag " << k;
  }
}

TEST(GenerateFgn, WhiteNoiseCaseUncorrelated) {
  support::Rng rng(5);
  const auto xs = generate_fgn(1 << 15, 0.5, 1.0, rng);
  ASSERT_TRUE(xs.ok());
  const auto r = stats::acf(xs.value(), 5);
  for (std::size_t k = 1; k <= 5; ++k) EXPECT_NEAR(r[k], 0.0, 0.02);
}

// ----------------------------------------------------------------- wavelet

TEST(Dwt, D4EnergyConservation) {
  support::Rng rng(7);
  std::vector<double> xs(512);
  for (auto& x : xs) x = rng.normal();
  double input_energy = 0;
  for (double x : xs) input_energy += x * x;

  const auto d = dwt(xs, 2);
  double output_energy = 0;
  for (const auto& level : d.details)
    for (double c : level) output_energy += c * c;
  for (double c : d.final_approximation) output_energy += c * c;
  EXPECT_NEAR(output_energy, input_energy, 1e-9 * input_energy);
}

TEST(Dwt, OctaveSizesHalve) {
  std::vector<double> xs(1024, 0.0);
  const auto d = dwt(xs, 4);
  ASSERT_GE(d.octaves(), 5U);
  std::size_t expect = 512;
  for (const auto& level : d.details) {
    EXPECT_EQ(level.size(), expect);
    expect /= 2;
  }
}

TEST(Dwt, ConstantSignalHasZeroDetails) {
  const std::vector<double> xs(256, 3.0);
  const auto d = dwt(xs, 2);
  for (const auto& level : d.details)
    for (double c : level) EXPECT_NEAR(c, 0.0, 1e-10);
}

TEST(Dwt, D4AnnihilatesLinearTrend) {
  // D4 has two vanishing moments: details of a pure linear ramp vanish
  // (up to the periodic wrap-around at the boundary).
  std::vector<double> xs(512);
  for (std::size_t t = 0; t < xs.size(); ++t)
    xs[t] = 0.5 * static_cast<double>(t);
  const auto d = dwt(xs, 8);
  ASSERT_GE(d.octaves(), 1U);
  const auto& finest = d.details[0];
  // Ignore the last coefficient (periodic boundary sees the jump).
  for (std::size_t k = 0; k + 1 < finest.size(); ++k)
    EXPECT_NEAR(finest[k], 0.0, 1e-9) << "k=" << k;
}

TEST(Dwt, OddLengthInputTruncated) {
  std::vector<double> xs(101, 1.0);
  const auto d = dwt(xs, 2);
  ASSERT_GE(d.octaves(), 1U);
  EXPECT_EQ(d.details[0].size(), 50U);
}

TEST(Dwt, TooShortInputYieldsNoOctaves) {
  const std::vector<double> xs = {1.0, 2.0};
  const auto d = dwt(xs, 4);
  EXPECT_EQ(d.octaves(), 0U);
}

}  // namespace
}  // namespace fullweb::timeseries
