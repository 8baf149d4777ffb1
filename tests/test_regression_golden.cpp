// Golden-value regression gate for the cached kernel paths.
//
// The FFT plan cache, the fGn circulant-spectrum cache, and the per-thread
// scratch arenas must be bit-transparent: a cache hit, a cache miss, a
// reused buffer, and any executor width must all produce the same doubles
// to the last bit. These tests pin exact 64-bit patterns (captured on the
// reference build) for fGn draws, a Whittle Hurst estimate, and a Hill
// estimate, and additionally compare cache hit-vs-miss runs directly. If an
// "optimization" ever changes a bit here, it changed results, not just
// speed.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "lrd/whittle.h"
#include "stats/distributions.h"
#include "support/rng.h"
#include "tail/hill.h"
#include "timeseries/fgn.h"

namespace fullweb {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

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

}  // namespace
}  // namespace fullweb
