#include "stats/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

#include "support/rng.h"

namespace fullweb::stats {
namespace {

using cd = std::complex<double>;

/// Naive O(n^2) DFT reference.
std::vector<cd> naive_dft(const std::vector<cd>& xs) {
  const std::size_t n = xs.size();
  std::vector<cd> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cd acc(0, 0);
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k * t) /
                           static_cast<double>(n);
      acc += xs[t] * cd(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<cd> random_signal(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<cd> xs(n);
  for (auto& x : xs) x = cd(rng.normal(), rng.normal());
  return xs;
}

class FftMatchesNaive : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftMatchesNaive, ForwardAgreesWithDft) {
  const std::size_t n = GetParam();
  auto xs = random_signal(n, 42 + n);
  const auto expected = naive_dft(xs);
  fft(xs);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(xs[k].real(), expected[k].real(), 1e-8 * static_cast<double>(n))
        << "n=" << n << " k=" << k;
    EXPECT_NEAR(xs[k].imag(), expected[k].imag(), 1e-8 * static_cast<double>(n));
  }
}

// Powers of two (radix-2 path) and awkward composite/prime lengths
// (Bluestein path), including the degenerate sizes.
INSTANTIATE_TEST_SUITE_P(Sizes, FftMatchesNaive,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31,
                                           32, 60, 64, 97, 100, 128, 210, 256));

// The Bluestein pain points: primes and 2^k +- 1 lengths, where the chirp
// convolution length 2n-1 sits just above/below a power of two.
INSTANTIATE_TEST_SUITE_P(PrimesAndPow2Neighbours, FftMatchesNaive,
                         ::testing::Values(63, 65, 127, 129, 251, 255, 257,
                                           509, 511, 513));

TEST(Fft, RandomLengthsAgreeWithNaiveDft) {
  support::Rng rng(2026);
  for (int trial = 0; trial < 12; ++trial) {
    const auto n = static_cast<std::size_t>(2 + rng.below(1400));
    auto xs = random_signal(n, 1000 + trial);
    const auto expected = naive_dft(xs);
    fft(xs);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_NEAR(xs[k].real(), expected[k].real(),
                  1e-8 * static_cast<double>(n))
          << "n=" << n << " k=" << k;
      ASSERT_NEAR(xs[k].imag(), expected[k].imag(),
                  1e-8 * static_cast<double>(n))
          << "n=" << n << " k=" << k;
    }
  }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversSignal) {
  const std::size_t n = GetParam();
  const auto original = random_signal(n, 7 + n);
  auto xs = original;
  fft(xs);
  ifft(xs);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(xs[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(xs[i].imag(), original[i].imag(), 1e-9);
  }
}

// 2^k +- 1 keeps the round-trip on the Bluestein path right next to the
// radix-2 sizes it embeds.
INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 3, 8, 13, 64, 100, 1000, 1023,
                                           1024, 1025, 4095, 4096, 4097,
                                           6000));

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<cd> xs(8, cd(0, 0));
  xs[0] = cd(1, 0);
  fft(xs);
  for (const auto& v : xs) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, PureToneConcentratesAtItsBin) {
  const std::size_t n = 64;
  std::vector<cd> xs(n);
  const std::size_t bin = 5;
  for (std::size_t t = 0; t < n; ++t) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(bin * t) /
                         static_cast<double>(n);
    xs[t] = cd(std::cos(angle), 0.0);
  }
  fft(xs);
  // cos splits between bins k and n-k with magnitude n/2 each.
  EXPECT_NEAR(std::abs(xs[bin]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(xs[n - bin]), n / 2.0, 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == bin || k == n - bin) continue;
    EXPECT_NEAR(std::abs(xs[k]), 0.0, 1e-9);
  }
}

TEST(Fft, ParsevalHolds) {
  auto xs = random_signal(100, 3);  // Bluestein path
  double time_energy = 0;
  for (const auto& v : xs) time_energy += std::norm(v);
  fft(xs);
  double freq_energy = 0;
  for (const auto& v : xs) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / 100.0, time_energy, 1e-8 * time_energy);
}

TEST(FftReal, PackedPow2PathAgreesWithComplexFft) {
  // Power-of-two lengths take the pack-two-halves real path; it must agree
  // with the full complex transform of the same data.
  for (std::size_t n : {2U, 8U, 64U, 1024U}) {
    support::Rng rng(11 + n);
    std::vector<double> xs(n);
    for (auto& x : xs) x = rng.normal();
    std::vector<cd> reference(n);
    for (std::size_t i = 0; i < n; ++i) reference[i] = cd(xs[i], 0.0);
    fft(reference);
    const auto spec = fft_real(xs);
    ASSERT_EQ(spec.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(spec[k].real(), reference[k].real(),
                  1e-10 * static_cast<double>(n))
          << "n=" << n << " k=" << k;
      EXPECT_NEAR(spec[k].imag(), reference[k].imag(),
                  1e-10 * static_cast<double>(n))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(FftReal, ConjugateSymmetry) {
  support::Rng rng(5);
  std::vector<double> xs(100);
  for (auto& x : xs) x = rng.normal();
  const auto spec = fft_real(xs);
  ASSERT_EQ(spec.size(), 100U);
  for (std::size_t k = 1; k < 50; ++k) {
    EXPECT_NEAR(spec[k].real(), spec[100 - k].real(), 1e-9);
    EXPECT_NEAR(spec[k].imag(), -spec[100 - k].imag(), 1e-9);
  }
}

TEST(NextPow2, Boundaries) {
  EXPECT_EQ(next_pow2(1), 1U);
  EXPECT_EQ(next_pow2(2), 2U);
  EXPECT_EQ(next_pow2(3), 4U);
  EXPECT_EQ(next_pow2(1024), 1024U);
  EXPECT_EQ(next_pow2(1025), 2048U);
}

TEST(NextPow2, SignalsOverflowInsteadOfLooping) {
  // The largest representable power of two is (SIZE_MAX >> 1) + 1. Anything
  // above it cannot be rounded up; next_pow2 must return 0, not spin or
  // wrap around.
  constexpr std::size_t kTopPow2 = (SIZE_MAX >> 1) + 1;
  EXPECT_EQ(next_pow2(kTopPow2), kTopPow2);
  EXPECT_EQ(next_pow2(kTopPow2 + 1), 0U);
  EXPECT_EQ(next_pow2(SIZE_MAX), 0U);
}

TEST(IsPow2, Classification) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(96));
}

TEST(Pow2Prefix, KeepsTheLongestPowerOfTwoPrefix) {
  const std::vector<double> xs(1000, 1.0);
  const std::span<const double> all(xs);
  for (const auto& [n, kept] : {std::pair<std::size_t, std::size_t>{0, 0},
                                {1, 1}, {2, 2}, {3, 2}, {512, 512},
                                {1000, 512}}) {
    const auto prefix = pow2_prefix(all.first(n));
    EXPECT_EQ(prefix.data(), xs.data()) << "n=" << n;
    EXPECT_EQ(prefix.size(), kept) << "n=" << n;
  }
}

}  // namespace
}  // namespace fullweb::stats
