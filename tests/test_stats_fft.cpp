#include "stats/fft.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <utility>
#include <vector>

#include "support/executor.h"
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

// ---------------------------------------------------------------------------
// Bit identity against the stage-by-stage kernel.
//
// FftPlan's radix-2 kernel reorders memory traffic (tiled bit reversal,
// stages run inside cache-sized blocks, later stages fused two or three at a
// time) but must compute the same butterflies on the same values. These
// references are the plain loops it replaced: swap bit reversal, then one
// pass over the array per stage. Outputs must match them bit for bit.

/// exp(-2*pi*i*k/len), from its own cos/sin call, as the plans build it.
cd twiddle(std::size_t k, std::size_t len) {
  const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                       static_cast<double>(len);
  return cd(std::cos(angle), std::sin(angle));
}

void reference_pow2(std::vector<cd>& a, bool inverse) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; (j & bit) != 0; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    std::vector<cd> w(half);
    for (std::size_t k = 0; k < half; ++k) {
      w[k] = inverse ? std::conj(twiddle(k, len)) : twiddle(k, len);
    }
    for (std::size_t b = 0; b < n; b += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cd u = a[b + k];
        const cd v = a[b + k + half] * w[k];
        a[b + k] = u + v;
        a[b + k + half] = u - v;
      }
    }
  }
}

/// Bluestein's chirp-z transform over reference_pow2, with the plans'
/// chirp table, padding and operation order.
void reference_bluestein(std::vector<cd>& a, bool inverse) {
  const std::size_t n = a.size();
  std::vector<cd> chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto k2 = static_cast<std::size_t>(
        (static_cast<unsigned long long>(k) * k) % (2ULL * n));
    const double angle = -std::numbers::pi * static_cast<double>(k2) /
                         static_cast<double>(n);
    chirp[k] = cd(std::cos(angle), std::sin(angle));
  }
  const std::size_t m = next_pow2(2 * n - 1);
  std::vector<cd> fb(m, cd(0.0, 0.0));
  fb[0] = inverse ? chirp[0] : std::conj(chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    fb[k] = fb[m - k] = inverse ? chirp[k] : std::conj(chirp[k]);
  }
  reference_pow2(fb, false);

  std::vector<cd> fa(m, cd(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    fa[k] = a[k] * (inverse ? std::conj(chirp[k]) : chirp[k]);
  }
  reference_pow2(fa, false);
  for (std::size_t i = 0; i < m; ++i) fa[i] *= fb[i];
  reference_pow2(fa, true);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (std::size_t k = 0; k < n; ++k) {
    a[k] = fa[k] * inv_m * (inverse ? std::conj(chirp[k]) : chirp[k]);
  }
}

/// fft_real's packed path over reference_pow2.
std::vector<cd> reference_real(const std::vector<double>& xs) {
  const std::size_t n = xs.size();
  const std::size_t h = n / 2;
  std::vector<cd> z(h);
  for (std::size_t k = 0; k < h; ++k) z[k] = cd(xs[2 * k], xs[2 * k + 1]);
  reference_pow2(z, false);
  std::vector<cd> out(n);
  out[0] = cd(z[0].real() + z[0].imag(), 0.0);
  out[h] = cd(z[0].real() - z[0].imag(), 0.0);
  for (std::size_t k = 1; k < h; ++k) {
    const cd zk = z[k];
    const cd zc = std::conj(z[h - k]);
    const cd e = 0.5 * (zk + zc);
    const cd o = cd(0.0, -0.5) * (zk - zc);
    const cd x = e + twiddle(k, n) * o;
    out[k] = x;
    out[n - k] = std::conj(x);
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

constexpr std::size_t kSame = SIZE_MAX;

/// Index of the first element whose real or imaginary bits differ, or
/// kSame when every bit matches.
std::size_t first_bit_difference(const std::vector<cd>& a,
                                 const std::vector<cd>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits(a[i].real()) != bits(b[i].real()) ||
        bits(a[i].imag()) != bits(b[i].imag()))
      return i;
  }
  return kSame;
}

/// The library under a null (serial) executor and under two workers.
void expect_plan_matches(const std::vector<cd>& input,
                         const std::vector<cd>& reference, bool inverse,
                         support::Executor& pool) {
  const auto plan = FftPlan::get(input.size());
  for (support::Executor* ex : {static_cast<support::Executor*>(nullptr),
                                &pool}) {
    auto out = input;
    if (inverse) plan->backward(out, ex);
    else plan->forward(out, ex);
    const std::size_t at = first_bit_difference(out, reference);
    EXPECT_EQ(at, kSame) << "n=" << input.size() << " inverse=" << inverse
                         << " executor=" << (ex != nullptr ? 2 : 0)
                         << " first differing element " << at;
  }
}

TEST(FftBitIdentity, Pow2MatchesStageByStageReference) {
  support::Executor pool(2);
  for (unsigned log2n = 0; log2n <= 20; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    const auto input = random_signal(n, 900 + log2n);
    for (bool inverse : {false, true}) {
      auto reference = input;
      reference_pow2(reference, inverse);
      expect_plan_matches(input, reference, inverse, pool);
    }
  }
}

TEST(FftBitIdentity, BluesteinMatchesReference) {
  // Sub-plans of 2^12 to 2^18 points: below, at and above the kernel's
  // 2^13-point cache block, then one to five whole-array stages after it
  // (a lone radix-2 pass, one radix-4, one radix-8, two radix-4, radix-8
  // plus radix-4).
  support::Executor pool(2);
  for (std::size_t n : {1500U, 3001U, 5000U, 10007U, 20011U, 40009U,
                        100003U}) {
    const auto input = random_signal(n, 77 + n);
    for (bool inverse : {false, true}) {
      auto reference = input;
      reference_bluestein(reference, inverse);
      expect_plan_matches(input, reference, inverse, pool);
    }
  }
}

TEST(FftBitIdentity, PackedRealMatchesReference) {
  support::Executor pool(2);
  for (unsigned log2n = 1; log2n <= 20; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    support::Rng rng(300 + log2n);
    std::vector<double> xs(n);
    for (auto& x : xs) x = rng.normal();
    const auto reference = reference_real(xs);
    EXPECT_EQ(first_bit_difference(fft_real(xs), reference), kSame)
        << "n=" << n;
    EXPECT_EQ(first_bit_difference(fft_real(xs, &pool), reference), kSame)
        << "n=" << n << " executor=2";
  }
}

/// 0 finite, 1 infinite, 2 NaN.
int fp_class(double v) { return std::isnan(v) ? 2 : std::isinf(v) ? 1 : 0; }

TEST(FftBitIdentity, NonFiniteInputsKeepTheReferenceClassPerElement) {
  // NaN payloads and signs may differ between scalar and packed code; the
  // finite/inf/NaN class of every output part may not.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  support::Executor pool(2);
  for (unsigned log2n : {3U, 10U, 14U, 17U}) {
    const std::size_t n = std::size_t{1} << log2n;
    auto input = random_signal(n, 40 + log2n);
    input[n / 3] = cd(kInf, 0.0);
    input[n / 2 + 1] = cd(1.0, -kInf);
    if (n > 8) input[n - 5] = cd(kNaN, 2.0);
    for (bool inverse : {false, true}) {
      auto reference = input;
      reference_pow2(reference, inverse);
      for (support::Executor* ex :
           {static_cast<support::Executor*>(nullptr), &pool}) {
        auto out = input;
        if (inverse) FftPlan::get(n)->backward(out, ex);
        else FftPlan::get(n)->forward(out, ex);
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < n; ++i) {
          mismatches += fp_class(out[i].real()) !=
                            fp_class(reference[i].real()) ||
                        fp_class(out[i].imag()) !=
                            fp_class(reference[i].imag());
        }
        EXPECT_EQ(mismatches, 0U) << "n=" << n << " inverse=" << inverse;
      }
    }
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
