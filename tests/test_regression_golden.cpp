// Golden-value regression gate for the cached kernel paths and the online
// snapshot.
//
// The FFT plan cache and the fGn circulant-spectrum cache must be
// bit-transparent: a cache hit, a cache miss, and any executor width must
// all produce the same doubles to the last bit. These tests pin exact
// 64-bit patterns (captured on the reference build) for fGn draws, a
// Whittle Hurst estimate, a Hill estimate, the three LLCD theta paths and
// an FRS memory estimate, and additionally compare cache hit-vs-miss runs
// directly. GoldenFft pins the output bits of radix-2 transforms below and
// above the kernel's cache block, the packed real transform, two Bluestein
// lengths and a week-length fGn draw, each by one digest. GoldenCurvature
// pins Downey's curvature test (statistic, p-value and fitted null) for both
// nulls on continuous and tied samples.
// GoldenOnline pins the bytes of every periodic OnlineAnalyzer
// snapshot of a fixed stream by one digest, so a change to any estimator
// the snapshot reports shows here. If an "optimization" ever changes a bit
// here, it changed results, not just speed.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <iterator>
#include <numbers>
#include <span>
#include <string_view>
#include <vector>

#include "lrd/whittle.h"
#include "online/analyzer.h"
#include "online/frs_memory.h"
#include "stats/distributions.h"
#include "stats/fft.h"
#include "stats/prefix_moments.h"
#include "support/rng.h"
#include "tail/curvature.h"
#include "tail/hill.h"
#include "tail/llcd.h"
#include "timeseries/fgn.h"

namespace fullweb {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// FNV-1a over the bytes of each document in turn, or over the 64-bit
/// pattern of each double, lowest byte first (so the digest does not depend
/// on the host's byte order).
class Fnv1a {
 public:
  void add(std::string_view s) {
    for (unsigned char c : s) h_ = (h_ ^ c) * 0x100000001b3ULL;
  }
  void add(double v) {
    std::uint64_t b = bits(v);
    for (int i = 0; i < 8; ++i, b >>= 8)
      h_ = (h_ ^ (b & 0xffU)) * 0x100000001b3ULL;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Captured from the reference implementation of this kernel pass (direct
// cos/sin twiddle tables; see DESIGN.md §5.6).
constexpr std::uint64_t kFgn0 = 0x3fed34f2d75e6ff7ULL;   // 0.91271345199811449
constexpr std::uint64_t kFgn1 = 0x3fed3c49a52fbf4aULL;   // 0.91360933554640522
constexpr std::uint64_t kFgn31 = 0x3fd87e919fb3fcb8ULL;  // 0.38272514911654865
constexpr std::uint64_t kFgn63 = 0xbfba6d9737241640ULL;  // -0.10323472114767984
constexpr std::uint64_t kWhittleH = 0x3fe9b20b6eca457cULL;    // 0.80298396719642500
constexpr std::uint64_t kHillAlpha = 0x3ff67221eea3b287ULL;   // 1.4028643915036427

std::vector<double> draw_fgn(std::size_t n, double h, std::uint64_t seed) {
  support::Rng rng(seed);
  auto r = timeseries::generate_fgn(n, h, 1.0, rng);
  EXPECT_TRUE(r.ok());
  return r.ok() ? r.value() : std::vector<double>{};
}

TEST(GoldenFgn, DrawsMatchReferenceBits) {
  const auto xs = draw_fgn(64, 0.8, 123);
  ASSERT_EQ(xs.size(), 64U);
  EXPECT_EQ(bits(xs[0]), kFgn0);
  EXPECT_EQ(bits(xs[1]), kFgn1);
  EXPECT_EQ(bits(xs[31]), kFgn31);
  EXPECT_EQ(bits(xs[63]), kFgn63);
}

TEST(GoldenFgn, SpectrumCacheHitIsBitIdenticalToMiss) {
  // The first draw at a fresh (n, H) builds the circulant spectrum; the
  // second hits the cache. Interleave another configuration to force real
  // cache traffic, then re-draw with the same seed: every bit must match.
  const auto miss = draw_fgn(512, 0.72, 99);
  const auto other = draw_fgn(256, 0.6, 7);
  ASSERT_EQ(other.size(), 256U);
  const auto hit = draw_fgn(512, 0.72, 99);
  ASSERT_EQ(miss.size(), hit.size());
  for (std::size_t i = 0; i < miss.size(); ++i)
    ASSERT_EQ(bits(miss[i]), bits(hit[i])) << "i=" << i;
}

// GoldenFft: digests captured from the stage-by-stage radix-2 kernel (one
// pass over the array per stage), which the cache-blocked kernel must match
// to the bit. 2^10 lies inside one cache block; 2^16 and up run fused passes
// over whole-array stages as well.
using cd = std::complex<double>;

std::vector<cd> complex_signal(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<cd> xs(n);
  for (auto& x : xs) x = cd(rng.normal(), rng.normal());
  return xs;
}

std::uint64_t fft_digest(std::span<const cd> xs) {
  Fnv1a d;
  for (const cd& v : xs) {
    d.add(v.real());
    d.add(v.imag());
  }
  return d.value();
}

struct FftGolden {
  std::size_t n;
  std::uint64_t forward, backward;
};

constexpr FftGolden kFftPow2[] = {
    {std::size_t{1} << 10, 0xe74b4ceac6af9ea9ULL, 0x030de32c4363db33ULL},
    {std::size_t{1} << 16, 0x8dfef6acfd31a371ULL, 0xa401f3eb2abbec06ULL},
    {std::size_t{1} << 20, 0x026145000d39ae8dULL, 0xe5aa4e6f935422a8ULL},
    {std::size_t{1} << 22, 0xa6a734b6116e6806ULL, 0xc5d21bd36429631dULL},
};

TEST(GoldenFft, Pow2TransformsMatchReferenceDigests) {
  for (const FftGolden& g : kFftPow2) {
    const auto plan = stats::FftPlan::get(g.n);
    const auto input = complex_signal(g.n, 500 + g.n);
    auto fwd = input;
    plan->forward(fwd);
    EXPECT_EQ(fft_digest(fwd), g.forward)
        << "n=" << g.n << std::hex << " 0x" << fft_digest(fwd);
    auto bwd = input;
    plan->backward(bwd);
    EXPECT_EQ(fft_digest(bwd), g.backward)
        << "n=" << g.n << std::hex << " 0x" << fft_digest(bwd);
  }
}

constexpr std::uint64_t kFftReal2p19 = 0xb27f15edc4092227ULL;

TEST(GoldenFft, PackedRealTransformMatchesReferenceDigest) {
  // The Hurst suite's shared periodogram length.
  support::Rng rng(19);
  std::vector<double> xs(std::size_t{1} << 19);
  for (auto& x : xs) x = rng.normal();
  const auto spec = stats::fft_real(xs);
  EXPECT_EQ(fft_digest(spec), kFftReal2p19) << std::hex << fft_digest(spec);
}

// 100,003 is prime; its 2^18-point sub-plan spans many cache blocks.
// 1,209,600 is the Davies-Harte circulant of a week of 1-second bins; its
// sub-plan is 2^22 points.
constexpr FftGolden kFftBluestein[] = {
    {100003, 0xe8a87de9f60c97dfULL, 0xd3092ba285106bbbULL},
    {1209600, 0x18ad094c9ed4c5baULL, 0x629ecf9339afdf52ULL},
};

TEST(GoldenFft, BluesteinTransformsMatchReferenceDigests) {
  for (const FftGolden& g : kFftBluestein) {
    const auto plan = stats::FftPlan::get(g.n);
    const auto input = complex_signal(g.n, 700 + g.n);
    auto fwd = input;
    plan->forward(fwd);
    EXPECT_EQ(fft_digest(fwd), g.forward)
        << "n=" << g.n << std::hex << " 0x" << fft_digest(fwd);
    auto bwd = input;
    plan->backward(bwd);
    EXPECT_EQ(fft_digest(bwd), g.backward)
        << "n=" << g.n << std::hex << " 0x" << fft_digest(bwd);
  }
}

constexpr std::uint64_t kFgnWeek = 0x20b231dfc371f4aaULL;

TEST(GoldenFft, WeekLengthFgnDrawMatchesReferenceDigest) {
  // The synthesizer's arrival-rate draw for a week of 1-second bins: two
  // Bluestein transforms of 1,209,600 points (spectrum and draw).
  const auto xs = draw_fgn(604800, 0.8, 3);
  ASSERT_EQ(xs.size(), 604800U);
  Fnv1a d;
  for (double x : xs) d.add(x);
  EXPECT_EQ(d.value(), kFgnWeek) << std::hex << d.value();
}

TEST(GoldenWhittle, EstimateMatchesReferenceBits) {
  support::Rng rng(42);
  auto series = timeseries::generate_fgn(4096, 0.8, 1.0, rng);
  ASSERT_TRUE(series.ok());
  auto wh = lrd::whittle_hurst(series.value());
  ASSERT_TRUE(wh.ok());
  EXPECT_EQ(bits(wh.value().estimate.h), kWhittleH);
}

TEST(GoldenHill, EstimateMatchesReferenceBits) {
  const stats::Pareto dist(1.4, 1.0);
  support::Rng rng(77);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = dist.sample(rng);
  auto hill = tail::hill_estimate(xs);
  ASSERT_TRUE(hill.ok());
  EXPECT_TRUE(hill.value().stabilized);
  EXPECT_EQ(bits(hill.value().alpha), kHillAlpha);
}

/// Exact bits of one LLCD fit, for the three theta paths below.
struct LlcdGolden {
  std::uint64_t alpha, stderr_alpha, r_squared, theta;
  std::size_t points, tail_samples;
};

void expect_llcd(const support::Result<tail::LlcdFit>& fit,
                 const LlcdGolden& g) {
  ASSERT_TRUE(fit.ok()) << fit.error().message;
  const tail::LlcdFit& f = fit.value();
  EXPECT_EQ(bits(f.alpha), g.alpha) << std::hex << bits(f.alpha);
  EXPECT_EQ(bits(f.stderr_alpha), g.stderr_alpha)
      << std::hex << bits(f.stderr_alpha);
  EXPECT_EQ(bits(f.r_squared), g.r_squared) << std::hex << bits(f.r_squared);
  EXPECT_EQ(bits(f.theta), g.theta) << std::hex << bits(f.theta);
  EXPECT_EQ(f.points, g.points);
  EXPECT_EQ(f.tail_samples, g.tail_samples);
}

/// Pareto(1.3) transfer sizes in whole bytes (so the body is full of ties),
/// with every 40th size zero like a 304 response.
std::vector<double> pareto_bytes(std::size_t n, std::uint64_t seed) {
  const stats::Pareto dist(1.3, 10.0);
  support::Rng rng(seed);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i)
    xs[i] = i % 40 == 0 ? 0.0 : std::floor(dist.sample(rng));
  return xs;
}

// alpha, stderr_alpha, r_squared, theta; points, tail_samples.
constexpr LlcdGolden kLlcdAuto{
    0x3ff3f6775d8aadc4ULL, 0x3f71066da0273deeULL, 0x3fefedf27e0470a8ULL,
    0x4031000000000000ULL, 201, 1502};  // theta 17
constexpr LlcdGolden kLlcdFraction{
    0x3ff3f647e6b8ed95ULL, 0x3f7d36cf0f4f913eULL, 0x3fefd9e4cb461014ULL,
    0x4052051eb851eb80ULL, 145, 234};  // theta 72.08
constexpr LlcdGolden kLlcdTheta{
    0x3ff40309a850bcceULL, 0x3f75b8afba8752d1ULL, 0x3fefe62991f10e61ULL,
    0x4044000000000000ULL, 178, 510};  // theta 40

TEST(GoldenLlcd, AutoThetaMatchesReferenceBits) {
  expect_llcd(tail::llcd_fit(pareto_bytes(3000, 2024)), kLlcdAuto);
}

TEST(GoldenLlcd, TailFractionMatchesReferenceBits) {
  tail::LlcdOptions opts;
  opts.tail_fraction = 0.08;
  expect_llcd(tail::llcd_fit(pareto_bytes(3000, 2024), opts), kLlcdFraction);
}

TEST(GoldenLlcd, ExplicitThetaMatchesReferenceBits) {
  tail::LlcdOptions opts;
  opts.theta = 40.0;
  expect_llcd(tail::llcd_fit(pareto_bytes(3000, 2024), opts), kLlcdTheta);
}

/// Per-second arrival counts whose rate swings with a 1,024-s period, so
/// the block-sum variance grows faster than the block length.
std::vector<double> swinging_counts(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> counts(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = static_cast<double>(i) / 1024.0;
    const double rate = 4.0 + 3.0 * std::sin(2.0 * std::numbers::pi * phase);
    counts[i] = std::floor(2.0 * rate * rng.uniform_pos());
  }
  return counts;
}

// h and r_squared, then the block-sum variance at scales 1, 2, ..., 128.
constexpr std::uint64_t kFrsH = 0x3fed028d957b6168ULL;  // 0.9065616530961451
constexpr std::uint64_t kFrsR2 = 0x3feff1b7b059a9cbULL;  // 0.9982565349903835
constexpr std::uint64_t kFrsVariance[] = {
    0x4026f194ad362e4aULL, 0x40400dce054690caULL, 0x40593dfa3fcc9ea8ULL,
    0x4075b1d97b30f8ccULL, 0x40939fc0e7bc3c5cULL, 0x40b2b897f1f9acffULL,
    0x40d1f31d40bb89baULL, 0x40f0f03dc4dc91fbULL};

TEST(GoldenFrs, EstimateMatchesReferenceBits) {
  // The form the online snapshot calls, on the prefix moments it shares
  // with variance-time. 4,000 bins: from scale 32 up the block count is
  // odd or a partial block trails, which the estimate drops.
  const auto counts = swinging_counts(4000, 19);
  const auto est = online::frs_memory_from_counts(
      stats::PrefixMoments(counts), online::FrsOptions{8, 4});
  ASSERT_TRUE(est.ok()) << est.error().message;
  const online::FrsEstimate& e = est.value();
  EXPECT_EQ(bits(e.h), kFrsH) << std::hex << bits(e.h);
  EXPECT_EQ(bits(e.r_squared), kFrsR2) << std::hex << bits(e.r_squared);
  ASSERT_EQ(e.points.size(), std::size(kFrsVariance));
  for (std::size_t j = 0; j < e.points.size(); ++j) {
    const std::size_t scale = std::size_t{1} << j;
    const std::size_t blocks = counts.size() / scale;
    EXPECT_EQ(e.points[j].scale_bins, scale);
    EXPECT_EQ(e.points[j].blocks, blocks);
    EXPECT_EQ(bits(e.points[j].variance), kFrsVariance[j])
        << "scale " << scale << std::hex << " " << bits(e.points[j].variance);
    // The same variance without prefix sums: sum each block, then take
    // the population variance of the sums in two passes.
    std::vector<double> sums(blocks, 0.0);
    for (std::size_t i = 0; i < blocks * scale; ++i)
      sums[i / scale] += counts[i];
    double mean = 0.0;
    for (double v : sums) mean += v;
    mean /= static_cast<double>(blocks);
    double ss = 0.0;
    for (double v : sums) ss += (v - mean) * (v - mean);
    EXPECT_NEAR(e.points[j].variance / (ss / static_cast<double>(blocks)), 1.0,
                1e-9)
        << "scale " << scale;
  }
}

/// Exact bits of one curvature test: the statistic, the Monte-Carlo p-value
/// and the two fitted null-model parameters.
struct CurvatureGolden {
  std::uint64_t curvature, p_value, param1, param2;
};

void expect_curvature(std::span<const double> xs, tail::TailModel model,
                      std::uint64_t seed, const CurvatureGolden& g) {
  support::Rng rng(seed);
  tail::CurvatureOptions opts;
  opts.model = model;
  opts.replicates = 99;
  const auto r = tail::curvature_test(xs, rng, opts);
  ASSERT_TRUE(r.ok()) << r.error().message;
  const tail::CurvatureResult& c = r.value();
  EXPECT_EQ(bits(c.curvature), g.curvature) << std::hex << bits(c.curvature);
  EXPECT_EQ(bits(c.p_value), g.p_value) << std::hex << bits(c.p_value);
  EXPECT_EQ(bits(c.param1), g.param1) << std::hex << bits(c.param1);
  EXPECT_EQ(bits(c.param2), g.param2) << std::hex << bits(c.param2);
  EXPECT_EQ(c.replicates, 99U);
}

template <typename Dist>
std::vector<double> draws(const Dist& dist, std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = dist.sample(rng);
  return xs;
}

/// Requests per session: whole numbers from 1 up with a Pareto tail, so
/// the body is a few heavily tied values.
std::vector<double> ceil_pareto(std::size_t n, std::uint64_t seed) {
  auto xs = draws(stats::Pareto(1.2, 1.0), n, seed);
  for (auto& x : xs) x = std::ceil(x);
  return xs;
}

// curvature, p_value, param1, param2 for the Pareto and the lognormal null.
constexpr CurvatureGolden kCurvParetoPareto{
    0xbfb061cad8e59055ULL, 0x3ff0000000000000ULL, 0x3ff6c37096a9212cULL,
    0x3ff9b25a691bf4aaULL};  // c2 -0.0640, p 1, alpha 1.423, k 1.606
constexpr CurvatureGolden kCurvParetoLognormal{
    0xbfb061cad8e59055ULL, 0x3f947ae147ae147bULL, 0x3fe6339dc7594cc7ULL,
    0x3fe6b2b995bb1f13ULL};  // p 0.02, mu 0.694, sigma 0.709
constexpr CurvatureGolden kCurvLognormalPareto{
    0xbfda8704d3bbf761ULL, 0x3f947ae147ae147bULL, 0x3fea7d0c9afb0669ULL,
    0x40059033a5a4ec3aULL};  // c2 -0.414, p 0.02, alpha 0.828, k 2.695
constexpr CurvatureGolden kCurvLognormalLognormal{
    0xbfda8704d3bbf761ULL, 0x3fee147ae147ae14ULL, 0x3fef65ce9a2846baULL,
    0x3ff85df367757331ULL};  // p 0.94, mu 0.981, sigma 1.523
constexpr CurvatureGolden kCurvTiedPareto{
    0xbfd7a47547e83e03ULL, 0x3fc47ae147ae147bULL, 0x400251136db50670ULL,
    0x4000000000000000ULL};  // c2 -0.369, p 0.16, alpha 2.290, k 2
constexpr CurvatureGolden kCurvTiedLognormal{
    0xbfd7a47547e83e03ULL, 0x3f947ae147ae147bULL, 0x3ff214196033e324ULL,
    0x3fe71905b61700d9ULL};  // p 0.02, mu 1.130, sigma 0.722

TEST(GoldenCurvature, ParetoSampleMatchesReferenceBits) {
  const auto xs = draws(stats::Pareto(1.4, 1.0), 2000, 51);
  expect_curvature(xs, tail::TailModel::kPareto, 52, kCurvParetoPareto);
  expect_curvature(xs, tail::TailModel::kLognormal, 53, kCurvParetoLognormal);
}

TEST(GoldenCurvature, LognormalSampleMatchesReferenceBits) {
  const auto xs = draws(stats::Lognormal(1.0, 1.5), 2000, 54);
  expect_curvature(xs, tail::TailModel::kPareto, 55, kCurvLognormalPareto);
  expect_curvature(xs, tail::TailModel::kLognormal, 56,
                   kCurvLognormalLognormal);
}

TEST(GoldenCurvature, TiedIntegerSampleMatchesReferenceBits) {
  const auto xs = ceil_pareto(3000, 57);
  expect_curvature(xs, tail::TailModel::kPareto, 58, kCurvTiedPareto);
  expect_curvature(xs, tail::TailModel::kLognormal, 59, kCurvTiedLognormal);
}

constexpr std::uint64_t kLlcdCurvatureHalf = 0xbfc3df28af62e095ULL;  // -0.1552
constexpr std::uint64_t kLlcdCurvatureFifth = 0x3fd9274be9a88b92ULL;  // 0.3930

TEST(GoldenCurvature, StatisticOnSignedTiedSampleMatchesReferenceBits) {
  // Whole-number Pareto draws (ties) among zeros, negatives and both signs
  // of zero side by side: the statistic drops every non-positive value but
  // still counts it in the CCDF ranks.
  auto xs = ceil_pareto(2000, 60);
  for (std::size_t i = 0; i < xs.size(); i += 25) {
    xs[i] = -0.0;
    xs[i + 1] = 0.0;
    xs[i + 2] = -static_cast<double>(i % 7) - 0.5;
  }
  const auto half = tail::llcd_curvature(xs, 0.5);
  ASSERT_TRUE(half.ok()) << half.error().message;
  EXPECT_EQ(bits(half.value()), kLlcdCurvatureHalf)
      << std::hex << bits(half.value());
  const auto fifth = tail::llcd_curvature(xs, 0.2);
  ASSERT_TRUE(fifth.ok()) << fifth.error().message;
  EXPECT_EQ(bits(fifth.value()), kLlcdCurvatureFifth)
      << std::hex << bits(fifth.value());
}

constexpr std::uint64_t kOnlineDigest = 0x2e4238ea98d4d681ULL;
constexpr std::size_t kOnlineSnapshots = 49;

TEST(GoldenOnline, SnapshotJsonMatchesReferenceDigest) {
  // Four hours of arrivals whose rate swings with a one-hour period, so the
  // 4,096-s window slides and the variance-time and FRS fits see structure;
  // transfer sizes are pareto_bytes-like, so the sketch starts exact, then
  // drops body items, and its quantiles cross tied values. One
  // snapshot every 300 s of stream time, as perfbench's clarknet_stream
  // takes them, plus the final one.
  online::OnlineAnalyzer an(online::OnlineOptions{}, support::Rng(20));
  support::Rng rng(31);
  const stats::Pareto size(1.3, 10.0);
  Fnv1a digest;
  std::size_t snapshots = 0;
  double t = 1.0e6;
  double next_snapshot = t + 300.0;
  for (std::uint64_t i = 0; t < 1.0e6 + 4.0 * 3600.0; ++i) {
    const double rate =
        4.0 + 3.0 * std::sin(2.0 * std::numbers::pi * t / 3600.0);
    t += -std::log(rng.uniform_pos()) / rate;
    an.add(t, i % 40 == 0 ? 0.0 : std::floor(size.sample(rng)));
    if (t >= next_snapshot) {
      next_snapshot += 300.0;
      digest.add(an.snapshot_json());
      ++snapshots;
    }
  }
  const online::OnlineSnapshot last = an.snapshot();
  digest.add(last.to_json());
  ++snapshots;
  // The digest covers every estimator the snapshot reports, not error text.
  EXPECT_TRUE(last.kpss.value && last.hurst_vt.value && last.frs.value &&
              last.hill.value && last.llcd.value);
  EXPECT_GT(an.sketch().dropped(), 0u);
  EXPECT_EQ(snapshots, kOnlineSnapshots);
  EXPECT_EQ(digest.value(), kOnlineDigest) << std::hex << digest.value();
}

}  // namespace
}  // namespace fullweb
