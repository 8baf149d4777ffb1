#include "stats/fft.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "support/executor.h"
#include "support/lru_cache.h"

namespace fullweb::stats {

namespace {

using cd = std::complex<double>;

/// Cached plans. Capacity bounds resident table memory (a length-2^20 plan
/// holds 16 MiB of twiddles); the analysis pipeline cycles through a handful
/// of lengths, so 8 slots keep every hot length resident.
support::LruCache<std::size_t, FftPlan>& plan_cache() {
  static support::LruCache<std::size_t, FftPlan> cache(8);
  return cache;
}

/// Twiddles exp(-2*pi*i*k/n), k < n/2, used to unpack the half-length
/// complex transform of a packed real signal of power-of-two length n.
/// Cached separately from the plans: only lengths that actually take the
/// real-input path pay for a table.
support::LruCache<std::size_t, std::vector<cd>>& real_unpack_cache() {
  static support::LruCache<std::size_t, std::vector<cd>> cache(8);
  return cache;
}

std::shared_ptr<const std::vector<cd>> real_unpack_twiddles(std::size_t n) {
  return real_unpack_cache().get_or_create(n, [n] {
    auto table = std::make_shared<std::vector<cd>>(n / 2);
    for (std::size_t k = 0; k < n / 2; ++k) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                           static_cast<double>(n);
      (*table)[k] = cd(std::cos(angle), std::sin(angle));
    }
    return table;
  });
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (n <= 1) return;

  if (is_pow2(n)) {
    log2n_ = static_cast<unsigned>(std::countr_zero(n));

    // Per-stage twiddles, each from its own cos/sin call: no error
    // accumulation across a stage, unlike the w *= wlen recurrence.
    twiddle_.resize(n - 1);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t half = len >> 1;
      cd* stage = twiddle_.data() + (half - 1);
      for (std::size_t k = 0; k < half; ++k) {
        const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                             static_cast<double>(len);
        stage[k] = cd(std::cos(angle), std::sin(angle));
      }
    }
    return;
  }

  // Bluestein tables. Chirp w[k] = exp(-i*pi*k^2/n); the k^2 mod 2n trick
  // keeps the argument small so cos/sin stay accurate for large k. (The
  // inverse direction conjugates the chirp on use.)
  chirp_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto k2 = static_cast<std::size_t>(
        (static_cast<unsigned long long>(k) * k) % (2ULL * n));
    const double angle = -std::numbers::pi * static_cast<double>(k2) /
                         static_cast<double>(n);
    chirp_[k] = cd(std::cos(angle), std::sin(angle));
  }

  // n complex values fit in memory, so 2n - 1 cannot overflow size_t and a
  // power of two >= 2n - 1 is representable.
  m_ = next_pow2(2 * n - 1);
  sub_ = get(m_);

  // Pre-transformed spectrum of the padded (conjugate-)chirp, per direction.
  std::vector<cd> fb(m_, cd(0.0, 0.0));
  fb[0] = std::conj(chirp_[0]);
  for (std::size_t k = 1; k < n; ++k) fb[k] = fb[m_ - k] = std::conj(chirp_[k]);
  chirp_spectrum_fwd_ = fb;
  sub_->forward(chirp_spectrum_fwd_);

  std::fill(fb.begin(), fb.end(), cd(0.0, 0.0));
  fb[0] = chirp_[0];
  for (std::size_t k = 1; k < n; ++k) fb[k] = fb[m_ - k] = chirp_[k];
  chirp_spectrum_inv_ = std::move(fb);
  sub_->forward(chirp_spectrum_inv_);
}

std::shared_ptr<const FftPlan> FftPlan::get(std::size_t n) {
  return plan_cache().get_or_create(
      n, [n] { return std::shared_ptr<const FftPlan>(new FftPlan(n)); });
}

namespace {

/// Points per task when a pass is chunked across a pool: big enough that
/// task overhead is noise, small enough that a week-scale transform splits
/// across every worker.
constexpr std::size_t kFftChunk = 32768;

/// Run body(lo, hi) over [0, count) in chunks of `grain`, across `executor`
/// when it is a real pool and the range is worth splitting; serial
/// otherwise. Bodies write disjoint elements per index, so chunking never
/// changes results.
template <typename Body>
void chunked(support::Executor* executor, std::size_t count, std::size_t grain,
             Body&& body) {
  if (executor == nullptr || executor->serial() || count < 2 * grain) {
    body(std::size_t{0}, count);
    return;
  }
  const std::size_t chunks = (count + grain - 1) / grain;
  executor->parallel_for(
      0, chunks,
      [&](std::size_t c) {
        body(c * grain, std::min(count, (c + 1) * grain));
      },
      /*grain=*/1);
}

/// Stages with len <= 2^kBlockLog2 run to completion inside one such block
/// (128 KiB, resident in a core's L2) before the next block is touched.
/// Blocks of 2^11 to 2^15 points timed alike on 2^22-point transforms
/// (0.14 s, Xeon with 2 MiB of L2 per core); 2^13 also fits smaller L2s.
constexpr unsigned kBlockLog2 = 13;

/// Bit reversal moves 2^kTileLog2 x 2^kTileLog2 tiles (16 KiB each).
constexpr unsigned kTileLog2 = 5;
constexpr std::size_t kTile = std::size_t{1} << kTileLog2;

std::size_t reverse_bits(std::size_t v, unsigned width) {
  std::size_t r = 0;
  for (unsigned i = 0; i < width; ++i, v >>= 1) r = (r << 1) | (v & 1U);
  return r;
}

/// In-place bit-reversal permutation of 2^log2n points. An index splits
/// into high, middle and low fields (h, m, l), h and l of kTileLog2 bits;
/// its reversal is (rev(l), rev(m), rev(h)). So the tile of all (h, l) at
/// one m swaps with the tile at rev(m), transposed: both tiles are staged
/// in L1-sized buffers and written back row by row, instead of one random
/// swap per point. Below two tile widths, the plain swap loop.
void bit_reverse(cd* a, unsigned log2n, support::Executor* executor) {
  const std::size_t n = std::size_t{1} << log2n;
  if (log2n < 2 * kTileLog2) {
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; (j & bit) != 0; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(a[i], a[j]);
    }
    return;
  }
  const unsigned mid_bits = log2n - 2 * kTileLog2;
  const unsigned row_shift = log2n - kTileLog2;  // h's place in an index
  std::array<std::uint8_t, kTile> rev{};
  for (std::size_t i = 0; i < kTile; ++i)
    rev[i] = static_cast<std::uint8_t>(reverse_bits(i, kTileLog2));

  // buf[rev(l) * kTile + rev(h)] = tile[h][l]: row r of buf is row r of the
  // partner tile.
  auto gather = [&](const cd* tile, cd* buf) {
    for (std::size_t h = 0; h < kTile; ++h) {
      const cd* row = tile + (h << row_shift);
      for (std::size_t l = 0; l < kTile; ++l)
        buf[rev[l] * kTile + rev[h]] = row[l];
    }
  };
  auto scatter = [&](const cd* buf, cd* tile) {
    for (std::size_t r = 0; r < kTile; ++r)
      std::copy_n(buf + r * kTile, kTile, tile + (r << row_shift));
  };
  chunked(executor, std::size_t{1} << mid_bits, kFftChunk >> (2 * kTileLog2),
          [&](std::size_t lo, std::size_t hi) {
            std::vector<cd> buf(2 * kTile * kTile);
            for (std::size_t m = lo; m < hi; ++m) {
              const std::size_t mr = reverse_bits(m, mid_bits);
              if (mr < m) continue;  // the pair was moved from mr
              cd* ta = a + (m << kTileLog2);
              cd* tb = a + (mr << kTileLog2);
              gather(ta, buf.data());
              if (mr != m) {
                gather(tb, buf.data() + kTile * kTile);
                scatter(buf.data() + kTile * kTile, ta);
              }
              scatter(buf.data(), tb);
            }
          });
}

/// One butterfly of a stage, exactly as a stage-by-stage pass computes it.
template <bool Inverse>
inline void butterfly(cd& lo, cd& hi, const cd& w) {
  const cd u = lo;
  const cd v = Inverse ? hi * std::conj(w) : hi * w;
  lo = u + v;
  hi = u - v;
}

/// R consecutive stages, half-lengths q .. 2^(R-1) q (q = 2^qlog2), over the
/// groups [g0, g1). Group g is column k = g mod q of span s = g / q: the
/// 2^R points s * 2^R q + k + j q, j < 2^R, which those R stages combine
/// only among themselves. Each stage meets the same values and reads the
/// same twiddle entry as it does in a pass of its own, so the output bits
/// do not depend on how stages are grouped into passes.
template <unsigned R, bool Inverse>
void fused_pass(cd* a, const cd* twiddle, unsigned qlog2, std::size_t g0,
                std::size_t g1) {
  constexpr std::size_t P = std::size_t{1} << R;
  const std::size_t q = std::size_t{1} << qlog2;
  while (g0 < g1) {
    const std::size_t s = g0 >> qlog2;
    const std::size_t k0 = g0 & (q - 1);
    const std::size_t k1 = std::min(q, k0 + (g1 - g0));
    cd* span = a + (s << (qlog2 + R));
    for (std::size_t k = k0; k < k1; ++k) {
      cd x[P];
      for (std::size_t j = 0; j < P; ++j) x[j] = span[k + j * q];
      for (unsigned st = 0; st < R; ++st) {
        const std::size_t dist = std::size_t{1} << st;  // pair distance in x
        const cd* w = twiddle + ((q << st) - 1) + k;    // stage table at k
        for (std::size_t i = 0; i < P / 2; ++i) {
          const std::size_t j = ((i >> st) << (st + 1)) | (i & (dist - 1));
          butterfly<Inverse>(x[j], x[j + dist], w[(j & (dist - 1)) * q]);
        }
      }
      for (std::size_t j = 0; j < P; ++j) span[k + j * q] = x[j];
    }
    g0 += k1 - k0;
  }
}

template <bool Inverse>
void run_pass(unsigned r, cd* a, const cd* twiddle, unsigned qlog2,
              std::size_t g0, std::size_t g1) {
  switch (r) {
    case 1: fused_pass<1, Inverse>(a, twiddle, qlog2, g0, g1); break;
    case 2: fused_pass<2, Inverse>(a, twiddle, qlog2, g0, g1); break;
    default: fused_pass<3, Inverse>(a, twiddle, qlog2, g0, g1); break;
  }
}

/// Stages fused into the next pass when `left` remain: three at a time, but
/// 2 + 2 rather than 3 + 1.
unsigned pass_radix(unsigned left) {
  return left == 4 ? 2 : std::min(left, 3U);
}

template <bool Inverse>
void transform_pow2_impl(cd* a, unsigned log2n, const cd* twiddle,
                         support::Executor* executor) {
  bit_reverse(a, log2n, executor);

  // Stages len = 2 .. 2^block_log2, block by block.
  const unsigned block_log2 = std::min(log2n, kBlockLog2);
  chunked(executor, std::size_t{1} << (log2n - block_log2), 1,
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t b = lo; b < hi; ++b) {
              for (unsigned st = 0; st < block_log2;) {
                const unsigned r = pass_radix(block_log2 - st);
                const std::size_t groups = std::size_t{1} << (block_log2 - r);
                run_pass<Inverse>(r, a, twiddle, st, b * groups,
                                  (b + 1) * groups);
                st += r;
              }
            }
          });

  // The remaining stages over the whole array, two or three per pass.
  for (unsigned st = block_log2; st < log2n;) {
    const unsigned r = pass_radix(log2n - st);
    chunked(executor, std::size_t{1} << (log2n - r), kFftChunk >> r,
            [&](std::size_t lo, std::size_t hi) {
              run_pass<Inverse>(r, a, twiddle, st, lo, hi);
            });
    st += r;
  }
}

}  // namespace

void FftPlan::transform_pow2(cd* a, bool inverse,
                             support::Executor* executor) const {
  if (inverse) transform_pow2_impl<true>(a, log2n_, twiddle_.data(), executor);
  else transform_pow2_impl<false>(a, log2n_, twiddle_.data(), executor);
}

void FftPlan::transform_bluestein(std::vector<cd>& a, bool inverse,
                                  support::Executor* executor) const {
  const std::size_t n = n_;
  std::vector<cd> fa(m_, cd(0.0, 0.0));
  chunked(executor, n, kFftChunk, [&](std::size_t lo, std::size_t hi) {
    if (!inverse) {
      for (std::size_t k = lo; k < hi; ++k) fa[k] = a[k] * chirp_[k];
    } else {
      for (std::size_t k = lo; k < hi; ++k) fa[k] = a[k] * std::conj(chirp_[k]);
    }
  });

  sub_->transform_pow2(fa.data(), false, executor);
  const auto& fbs = inverse ? chirp_spectrum_inv_ : chirp_spectrum_fwd_;
  chunked(executor, m_, kFftChunk, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fa[i] *= fbs[i];
  });
  sub_->transform_pow2(fa.data(), true, executor);

  const double inv_m = 1.0 / static_cast<double>(m_);
  chunked(executor, n, kFftChunk, [&](std::size_t lo, std::size_t hi) {
    if (!inverse) {
      for (std::size_t k = lo; k < hi; ++k) a[k] = fa[k] * inv_m * chirp_[k];
    } else {
      for (std::size_t k = lo; k < hi; ++k)
        a[k] = fa[k] * inv_m * std::conj(chirp_[k]);
    }
  });
}

void FftPlan::forward(std::vector<cd>& data,
                      support::Executor* executor) const {
  assert(data.size() == n_);
  if (n_ <= 1) return;
  if (m_ == 0) transform_pow2(data.data(), false, executor);
  else transform_bluestein(data, false, executor);
}

void FftPlan::backward(std::vector<cd>& data,
                       support::Executor* executor) const {
  assert(data.size() == n_);
  if (n_ <= 1) return;
  if (m_ == 0) transform_pow2(data.data(), true, executor);
  else transform_bluestein(data, true, executor);
}

std::size_t next_pow2(std::size_t n) noexcept {
  constexpr std::size_t kMaxPow2 = (SIZE_MAX >> 1) + 1;
  if (n > kMaxPow2) return 0;  // would overflow: no power of two >= n exists
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) noexcept { return n >= 1 && (n & (n - 1)) == 0; }

void fft(std::vector<cd>& data) {
  if (data.size() <= 1) return;
  FftPlan::get(data.size())->forward(data);
}

void ifft(std::vector<cd>& data) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  FftPlan::get(n)->backward(data);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (auto& v : data) v *= inv_n;
}

std::vector<cd> fft_real(std::span<const double> xs,
                         support::Executor* executor) {
  const std::size_t n = xs.size();
  std::vector<cd> out(n);
  if (n == 0) return out;
  if (n == 1) {
    out[0] = cd(xs[0], 0.0);
    return out;
  }
  if (!is_pow2(n)) {
    for (std::size_t i = 0; i < n; ++i) out[i] = cd(xs[i], 0.0);
    FftPlan::get(n)->forward(out, executor);
    return out;
  }

  // Pack-two-halves real transform: z[k] = x[2k] + i*x[2k+1], one complex
  // FFT of length n/2, then split into the even/odd-sample spectra E and O
  // and recombine X[k] = E[k] + W^k O[k] with W = exp(-2*pi*i/n).
  const std::size_t h = n / 2;
  const auto plan = FftPlan::get(h);
  const auto unpack = real_unpack_twiddles(n);
  std::vector<cd> z(h);
  for (std::size_t k = 0; k < h; ++k) z[k] = cd(xs[2 * k], xs[2 * k + 1]);
  plan->forward(z, executor);

  const cd* w = unpack->data();
  out[0] = cd(z[0].real() + z[0].imag(), 0.0);
  out[h] = cd(z[0].real() - z[0].imag(), 0.0);
  // Each k writes only {out[k], out[n-k]}, disjoint across k: chunkable.
  chunked(executor, h - 1, kFftChunk, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo + 1; k < hi + 1; ++k) {
      const cd zk = z[k];
      const cd zc = std::conj(z[h - k]);
      const cd e = 0.5 * (zk + zc);
      const cd o = cd(0.0, -0.5) * (zk - zc);  // (zk - zc) / (2i)
      const cd x = e + w[k] * o;
      out[k] = x;
      out[n - k] = std::conj(x);
    }
  });
  return out;
}

}  // namespace fullweb::stats
