#include "stats/distributions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.h"
#include "support/rng.h"

namespace fullweb::stats {
namespace {

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.9750021, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.96), 0.0249979, 1e-6);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501, 1e-6);
}

TEST(NormalQuantile, InvertsCdf) {
  for (double p : {0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-8) << "p=" << p;
  }
}

TEST(NormalQuantile, RejectsBoundaries) {
  EXPECT_THROW((void)normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(1.0), std::invalid_argument);
}

// ---------------------------------------------------------------- Pareto

TEST(Pareto, CdfMatchesPaperEquation4) {
  const Pareto p(1.5, 2.0);
  EXPECT_DOUBLE_EQ(p.cdf(1.0), 0.0);  // below k
  EXPECT_DOUBLE_EQ(p.cdf(2.0), 0.0);
  EXPECT_NEAR(p.cdf(4.0), 1.0 - std::pow(0.5, 1.5), 1e-12);
  EXPECT_NEAR(p.ccdf(4.0), std::pow(0.5, 1.5), 1e-12);
}

TEST(Pareto, QuantileInvertsCdf) {
  const Pareto p(1.2, 5.0);
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(p.cdf(p.quantile(q)), q, 1e-10);
  }
}

TEST(Pareto, MomentFiniteness) {
  EXPECT_TRUE(std::isinf(Pareto(0.9, 1.0).mean()));
  EXPECT_TRUE(std::isinf(Pareto(1.5, 1.0).variance()));
  EXPECT_FALSE(std::isinf(Pareto(1.5, 1.0).mean()));
  EXPECT_FALSE(std::isinf(Pareto(2.5, 1.0).variance()));
}

TEST(Pareto, MeanFormula) {
  const Pareto p(3.0, 2.0);
  EXPECT_DOUBLE_EQ(p.mean(), 3.0);  // alpha k / (alpha - 1)
  EXPECT_NEAR(p.variance(), 4.0 * 3.0 / (4.0 * 1.0), 1e-12);
}

TEST(Pareto, SampleMeanConverges) {
  support::Rng rng(1);
  const Pareto p(3.0, 2.0);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += p.sample(rng);
  EXPECT_NEAR(sum / n, p.mean(), 0.02);
}

TEST(Pareto, SamplesRespectLocation) {
  support::Rng rng(2);
  const Pareto p(1.1, 7.0);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(p.sample(rng), 7.0);
}

TEST(Pareto, MleRecoversAlpha) {
  support::Rng rng(3);
  const Pareto truth(1.7, 1.0);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = truth.sample(rng);
  const auto fit = Pareto::fit_mle(xs, 1.0);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().alpha(), 1.7, 0.05);
}

TEST(Pareto, MleErrorsOnBadInput) {
  EXPECT_FALSE(Pareto::fit_mle(std::vector<double>{1.0}, 1.0).ok());
  EXPECT_FALSE(Pareto::fit_mle(std::vector<double>{1, 2, 3}, -1.0).ok());
  // All samples below k.
  EXPECT_FALSE(Pareto::fit_mle(std::vector<double>{1, 2, 3}, 10.0).ok());
}

TEST(Pareto, RejectsBadParameters) {
  EXPECT_THROW(Pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Pareto(1.0, -2.0), std::invalid_argument);
}

// ------------------------------------------------------------- Lognormal

TEST(Lognormal, CdfMedian) {
  const Lognormal ln(2.0, 0.5);
  EXPECT_NEAR(ln.cdf(std::exp(2.0)), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(ln.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(ln.cdf(-5.0), 0.0);
}

TEST(Lognormal, MeanVarianceFormulas) {
  const Lognormal ln(1.0, 0.8);
  EXPECT_NEAR(ln.mean(), std::exp(1.0 + 0.32), 1e-12);
  const double s2 = 0.64;
  EXPECT_NEAR(ln.variance(), (std::exp(s2) - 1.0) * std::exp(2.0 + s2), 1e-9);
}

TEST(Lognormal, SampleMomentsConverge) {
  support::Rng rng(4);
  const Lognormal ln(0.5, 0.7);
  std::vector<double> xs(200000);
  for (auto& x : xs) x = ln.sample(rng);
  EXPECT_NEAR(mean(xs), ln.mean(), 0.02 * ln.mean());
}

TEST(Lognormal, MleRecoversParameters) {
  support::Rng rng(5);
  const Lognormal truth(3.0, 1.2);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = truth.sample(rng);
  const auto fit = Lognormal::fit_mle(xs);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().mu(), 3.0, 0.02);
  EXPECT_NEAR(fit.value().sigma(), 1.2, 0.02);
}

TEST(Lognormal, MleRejectsNonPositive) {
  EXPECT_FALSE(Lognormal::fit_mle(std::vector<double>{1.0, -2.0, 3.0}).ok());
  EXPECT_FALSE(Lognormal::fit_mle(std::vector<double>{1.0}).ok());
}

TEST(Lognormal, QuantileInvertsCdf) {
  const Lognormal ln(1.5, 0.9);
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95})
    EXPECT_NEAR(ln.cdf(ln.quantile(q)), q, 1e-9);
}

// ----------------------------------------------------------- Exponential

TEST(Exponential, CdfAndQuantile) {
  const Exponential e(2.0);
  EXPECT_NEAR(e.cdf(0.5), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(e.quantile(1.0 - std::exp(-1.0)), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(e.cdf(-1.0), 0.0);
}

TEST(Exponential, MemorylessCcdf) {
  const Exponential e(0.7);
  // P(X > s + t) = P(X > s) P(X > t).
  EXPECT_NEAR(e.ccdf(3.0), e.ccdf(1.0) * e.ccdf(2.0), 1e-12);
}

TEST(Exponential, SampleMeanConverges) {
  support::Rng rng(6);
  const Exponential e(4.0);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += e.sample(rng);
  EXPECT_NEAR(sum / n, 0.25, 0.005);
}

TEST(Exponential, MleIsInverseMean) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const auto fit = Exponential::fit_mle(xs);
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit.value().lambda(), 0.5);
}

// --------------------------------------------------------------- Weibull

TEST(Weibull, ReducesToExponentialAtShapeOne) {
  const Weibull w(1.0, 2.0);
  const Exponential e(0.5);
  for (double x : {0.1, 1.0, 3.0, 10.0})
    EXPECT_NEAR(w.cdf(x), e.cdf(x), 1e-12);
}

TEST(Weibull, QuantileInvertsCdf) {
  const Weibull w(0.7, 3.0);
  for (double q : {0.1, 0.5, 0.9}) EXPECT_NEAR(w.cdf(w.quantile(q)), q, 1e-10);
}

TEST(Weibull, SamplesNonNegative) {
  support::Rng rng(8);
  const Weibull w(0.5, 1.0);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(w.sample(rng), 0.0);
}

// --------------------------------------------------------------- Poisson

class PoissonMoments : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMoments, MeanAndVarianceMatch) {
  const double lambda = GetParam();
  support::Rng rng(100 + static_cast<std::uint64_t>(lambda * 10));
  const int n = 100000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const auto k = static_cast<double>(poisson_sample(lambda, rng));
    sum += k;
    sum2 += k * k;
  }
  const double m = sum / n;
  const double var = sum2 / n - m * m;
  const double tol = 5.0 * std::sqrt(lambda / n) + 0.01;
  EXPECT_NEAR(m, lambda, tol);
  EXPECT_NEAR(var, lambda, 10.0 * tol * std::sqrt(lambda + 1.0));
}

// Spans Knuth (< 10) and PTRS (>= 10) regimes.
INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonMoments,
                         ::testing::Values(0.1, 1.0, 5.0, 9.9, 10.1, 30.0,
                                           100.0));

TEST(Poisson, ZeroAndNegativeMeanGiveZero) {
  support::Rng rng(1);
  EXPECT_EQ(poisson_sample(0.0, rng), 0);
  EXPECT_EQ(poisson_sample(-3.0, rng), 0);
}

}  // namespace
}  // namespace fullweb::stats
