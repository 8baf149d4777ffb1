// Fast Fourier transform: iterative radix-2 Cooley-Tukey for power-of-two
// lengths plus Bluestein's chirp-z algorithm for arbitrary lengths.
//
// Used by the periodogram behind the Hurst estimators (series truncated to a
// power of two), FFT-based autocorrelation (zero-padded to a power of two),
// and the Davies-Harte fractional Gaussian noise generator (a 2n-point
// circulant, a Bluestein length for a week of 1-second bins). No fit path
// transforms a week-length series (n = t1 − t0 on real logs): the seasonal
// scan reads its narrow band of periodogram ordinates by direct DFT
// (stats::periodogram_band).
//
// The radix-2 kernel computes the butterflies of the textbook iterative
// loop (bit reversal, then stages len = 2, 4, .., n), each with its stage's
// own twiddle entry, but in an order that streams memory a few times
// instead of once per stage: bit reversal swaps 32x32 tiles between index
// pairs, the stages with len <= 2^13 run inside each 2^13-point (128 KiB)
// block, and the later stages run two or three per pass over the array.
// Every element meets the same operations on the same values, so the output
// is bit-identical to the stage-by-stage loop (test_stats_fft keeps a copy
// of it as the reference; GoldenFft pins digests up to 2^22 points).
// fft.cpp builds under the hot_simd flags, which change throughput, never
// bits (cmake/hot_simd.cmake).
//
// Transforms are driven by cached FftPlans: per-stage twiddle tables for
// the radix-2 path, and for Bluestein lengths the chirp table plus the
// pre-transformed chirp spectrum per direction. Plans live in a
// process-wide mutex-guarded LRU (support::LruCache), so repeated
// same-length transforms — ACF sweeps, periodogram batches, fGn Monte-Carlo
// draws — pay the setup cost once.
#pragma once

#include <bit>
#include <complex>
#include <memory>
#include <span>
#include <vector>

namespace fullweb::support {
class Executor;
}

namespace fullweb::stats {

/// Precomputed tables for length-n DFTs. Immutable after construction and
/// shared across threads; obtain instances through get() only.
///
/// Executor parameter: unlike the rest of the library, a null executor here
/// means SERIAL (not "the global pool") — the FFT is a leaf kernel and most
/// call sites run it inside an already-parallel task. Passing an executor
/// opts the transform into chunking each of its passes across the pool:
/// tile pairs of the bit reversal, whole cache blocks of the early stages,
/// groups of a fused later pass, and ranges of the Bluestein pointwise
/// products. Each chunk writes only its own elements with the same
/// operations as the serial run, so the spectrum is bit-identical at any
/// thread count.
class FftPlan {
 public:
  /// The (cached) plan for length-n transforms.
  [[nodiscard]] static std::shared_ptr<const FftPlan> get(std::size_t n);

  [[nodiscard]] std::size_t length() const noexcept { return n_; }

  /// In-place unnormalized forward DFT of exactly length() points.
  void forward(std::vector<std::complex<double>>& data,
               support::Executor* executor = nullptr) const;

  /// In-place unnormalized inverse DFT (callers scale by 1/n; ifft() does).
  void backward(std::vector<std::complex<double>>& data,
                support::Executor* executor = nullptr) const;

 private:
  explicit FftPlan(std::size_t n);

  void transform_pow2(std::complex<double>* a, bool inverse,
                      support::Executor* executor) const;
  void transform_bluestein(std::vector<std::complex<double>>& a, bool inverse,
                           support::Executor* executor) const;

  std::size_t n_ = 0;

  // Radix-2 tables (power-of-two lengths, n = 2^log2n_). twiddle_ is the
  // per-stage table laid out flat: stage `len` holds exp(-2*pi*i*k/len),
  // k < len/2, at offset len/2 - 1 (n - 1 entries total). Twiddles are
  // computed with direct cos/sin per entry — unlike the w *= wlen
  // recurrence this does not accumulate rounding error across a stage.
  unsigned log2n_ = 0;
  std::vector<std::complex<double>> twiddle_;

  // Bluestein tables (other lengths): chirp w[k] = exp(-i*pi*k^2/n) (the
  // inverse direction conjugates on use), and the forward length-m_ spectrum
  // of the padded conjugate-chirp sequence for each direction.
  std::size_t m_ = 0;                      ///< convolution length, power of two
  std::shared_ptr<const FftPlan> sub_;     ///< length-m_ radix-2 plan
  std::vector<std::complex<double>> chirp_;
  std::vector<std::complex<double>> chirp_spectrum_fwd_;
  std::vector<std::complex<double>> chirp_spectrum_inv_;
};

/// In-place forward FFT. Any length (radix-2 fast path, Bluestein otherwise).
void fft(std::vector<std::complex<double>>& data);

/// In-place inverse FFT (includes the 1/n normalization).
void ifft(std::vector<std::complex<double>>& data);

/// Forward FFT of a real sequence; returns the full complex spectrum of the
/// same length (conjugate-symmetric). Power-of-two lengths use the packed
/// real-to-complex path: one complex FFT of length n/2 instead of length n
/// (~2x fewer flops). A non-null `executor` parallelizes the transform
/// passes (null = serial; see the FftPlan note — results are bit-identical
/// either way).
[[nodiscard]] std::vector<std::complex<double>> fft_real(
    std::span<const double> xs, support::Executor* executor = nullptr);

/// Smallest power of two >= n, or 0 when none is representable in size_t
/// (n > 2^63 on 64-bit). Callers transform buffers that exist in memory, so
/// in practice 0 signals arithmetic misuse, not a plannable transform.
[[nodiscard]] std::size_t next_pow2(std::size_t n) noexcept;

/// True if n is a power of two (n >= 1).
[[nodiscard]] bool is_pow2(std::size_t n) noexcept;

/// The longest power-of-two-length prefix of xs (xs itself when its size is
/// 0, 1 or a power of two). The Hurst estimators truncate their periodogram
/// input this way: a power-of-two length keeps the FFT on the radix-2 fast
/// path (Bluestein on a week-length series costs ~5x) at the price of
/// discarding at most half — in practice < 15% — of the newest samples.
[[nodiscard]] inline std::span<const double> pow2_prefix(
    std::span<const double> xs) noexcept {
  return xs.first(std::bit_floor(xs.size()));
}

}  // namespace fullweb::stats
