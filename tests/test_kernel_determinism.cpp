// 1-vs-8-thread bit-identity for the kernels the scaling campaign
// parallelized: the Downey curvature Monte Carlo (per-replicate RngSplitter
// micro-streams), the FFT-backed periodogram (chunked butterfly stages), and
// make_stationary (raw KPSS overlapped with the periodogram band scan).
// Every comparison is exact (==, not near): the contract is that an
// executor changes throughput, never bits. This suite also runs under the
// tsan_determinism gate, where the same assertions double as race detectors.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <numbers>
#include <vector>

#include "core/stationary.h"
#include "stats/distributions.h"
#include "stats/periodogram.h"
#include "support/executor.h"
#include "support/rng.h"
#include "tail/curvature.h"

namespace {

using namespace fullweb;

std::vector<double> pareto_sample(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  const stats::Pareto dist(1.4, 1.0);
  std::vector<double> xs(n);
  for (auto& x : xs) x = dist.sample(rng);
  return xs;
}

/// A rough LRD-ish series: cumulative noise re-centered, enough structure
/// that every octave and frequency bin carries nontrivial energy.
std::vector<double> walk_series(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> xs(n);
  double level = 0.0;
  for (auto& x : xs) {
    level += rng.uniform() - 0.5;
    x = level + rng.uniform();
  }
  return xs;
}

TEST(KernelDeterminism, CurvatureMonteCarloBitIdenticalAcrossThreadCounts) {
  const auto xs = pareto_sample(4000, 101);
  tail::CurvatureResult serial{};
  {
    support::Executor ex(1);
    tail::CurvatureOptions opts;
    opts.replicates = 99;
    opts.executor = &ex;
    support::Rng rng(7);
    auto r = tail::curvature_test(xs, rng, opts);
    ASSERT_TRUE(r.ok());
    serial = r.value();
  }
  for (std::size_t threads : {2u, 8u}) {
    support::Executor ex(threads);
    tail::CurvatureOptions opts;
    opts.replicates = 99;
    opts.executor = &ex;
    support::Rng rng(7);
    auto r = tail::curvature_test(xs, rng, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().curvature, serial.curvature) << threads;
    EXPECT_EQ(r.value().p_value, serial.p_value) << threads;
    EXPECT_EQ(r.value().param1, serial.param1) << threads;
    EXPECT_EQ(r.value().param2, serial.param2) << threads;
    EXPECT_EQ(r.value().replicates, serial.replicates) << threads;
  }
}

TEST(KernelDeterminism, CurvatureLognormalNullAlsoBitIdentical) {
  const auto xs = pareto_sample(3000, 202);
  auto run = [&](std::size_t threads) {
    support::Executor ex(threads);
    tail::CurvatureOptions opts;
    opts.model = tail::TailModel::kLognormal;
    opts.replicates = 49;
    opts.executor = &ex;
    support::Rng rng(9);
    auto r = tail::curvature_test(xs, rng, opts);
    EXPECT_TRUE(r.ok());
    return r.ok() ? r.value().p_value : -1.0;
  };
  const double serial = run(1);
  EXPECT_EQ(run(8), serial);
}

TEST(KernelDeterminism, PeriodogramBitIdenticalAcrossThreadCounts) {
  const auto xs = walk_series(std::size_t{1} << 15, 505);
  const auto serial = stats::periodogram(xs);  // default: serial leaf
  for (std::size_t threads : {2u, 8u}) {
    support::Executor ex(threads);
    const auto parallel = stats::periodogram(xs, &ex);
    ASSERT_EQ(parallel.power, serial.power) << threads;
    ASSERT_EQ(parallel.frequency, serial.frequency) << threads;
  }
}

TEST(KernelDeterminism, MakeStationaryBitIdenticalAcrossThreadCounts) {
  // A trending series with a 300-sample cycle, searched in [50, 600]: the
  // band scan finds the cycle, and the parallel pool overlaps it with the
  // raw KPSS.
  auto xs = walk_series(24000, 606);
  for (std::size_t t = 0; t < xs.size(); ++t)
    xs[t] += 3.0 * std::sin(2.0 * std::numbers::pi * static_cast<double>(t) /
                            300.0);
  core::StationaryOptions opts;
  opts.min_period = 50;
  opts.max_period = 600;
  opts.only_if_nonstationary = false;
  auto run = [&](std::size_t threads) {
    support::Executor ex(threads);
    auto o = opts;
    o.executor = &ex;
    auto r = core::make_stationary(xs, o);
    EXPECT_TRUE(r.ok()) << threads;
    return r.ok() ? r.value() : core::StationaryReport{};
  };
  const auto serial = run(1);
  ASSERT_TRUE(serial.seasonal_removed);
  ASSERT_TRUE(serial.kpss_stationary.has_value());
  for (std::size_t threads : {2u, 8u}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.period, serial.period) << threads;
    EXPECT_EQ(parallel.seasonal_strength, serial.seasonal_strength) << threads;
    EXPECT_EQ(parallel.trend_slope, serial.trend_slope) << threads;
    EXPECT_EQ(parallel.kpss_raw.statistic, serial.kpss_raw.statistic)
        << threads;
    ASSERT_TRUE(parallel.kpss_stationary.has_value()) << threads;
    EXPECT_EQ(parallel.kpss_stationary->statistic,
              serial.kpss_stationary->statistic)
        << threads;
    EXPECT_EQ(parallel.series, serial.series) << threads;
  }
}

}  // namespace
