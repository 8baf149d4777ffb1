#include "stats/fft.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

#include "support/executor.h"
#include "support/lru_cache.h"

namespace fullweb::stats {

namespace {

using cd = std::complex<double>;

/// Cached plans. Capacity bounds resident table memory (a length-2^20 plan
/// holds ~20 MiB of tables); the analysis pipeline cycles through a handful
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
    // Bit-reversal permutation table: brev(i) derived from brev(i >> 1).
    assert(n <= (std::size_t{1} << 32));
    bitrev_.resize(n);
    bitrev_[0] = 0;
    for (std::size_t i = 1; i < n; ++i) {
      bitrev_[i] = (bitrev_[i >> 1] >> 1) |
                   ((i & 1U) != 0 ? static_cast<std::uint32_t>(n >> 1) : 0U);
    }

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

/// Butterflies (or pointwise products) per task: big enough that task
/// overhead is noise, small enough that every stage of a week-scale
/// transform splits across the pool.
constexpr std::size_t kFftChunk = 16384;

/// Run body(lo, hi) over [0, count), chunked across `executor` when it is a
/// real pool and the range is worth splitting; serial otherwise. Bodies
/// write disjoint elements per index, so chunking never changes results.
template <typename Body>
void chunked(support::Executor* executor, std::size_t count, Body&& body) {
  if (executor == nullptr || executor->serial() || count < 2 * kFftChunk) {
    body(std::size_t{0}, count);
    return;
  }
  const std::size_t chunks = (count + kFftChunk - 1) / kFftChunk;
  executor->parallel_for(
      0, chunks,
      [&](std::size_t c) {
        body(c * kFftChunk, std::min(count, (c + 1) * kFftChunk));
      },
      /*grain=*/1);
}

}  // namespace

void FftPlan::transform_pow2(cd* a, bool inverse,
                             support::Executor* executor) const {
  const std::size_t n = n_;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(a[i], a[j]);
  }

  const std::size_t butterflies = n >> 1;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const cd* stage = twiddle_.data() + (half - 1);
    // One contiguous run of butterflies [k0, k1) inside the block at `lo`.
    auto run = [&](cd* lo, std::size_t k0, std::size_t k1) {
      cd* hi = lo + half;
      if (!inverse) {
        for (std::size_t k = k0; k < k1; ++k) {
          const cd u = lo[k];
          const cd v = hi[k] * stage[k];
          lo[k] = u + v;
          hi[k] = u - v;
        }
      } else {
        for (std::size_t k = k0; k < k1; ++k) {
          const cd u = lo[k];
          const cd v = hi[k] * std::conj(stage[k]);
          lo[k] = u + v;
          hi[k] = u - v;
        }
      }
    };
    // Flatten the stage's butterflies block-major and chunk them: every
    // butterfly owns its {lo[k], hi[k]} pair, so chunks never share writes
    // and the stage is bit-identical to the serial double loop.
    chunked(executor, butterflies, [&](std::size_t b, std::size_t end) {
      while (b < end) {
        const std::size_t block = b / half;
        const std::size_t k0 = b - block * half;
        const std::size_t k1 = std::min(half, k0 + (end - b));
        run(a + block * len, k0, k1);
        b += k1 - k0;
      }
    });
  }
}

void FftPlan::transform_bluestein(std::vector<cd>& a, bool inverse,
                                  support::Executor* executor) const {
  const std::size_t n = n_;
  std::vector<cd> fa(m_, cd(0.0, 0.0));
  chunked(executor, n, [&](std::size_t lo, std::size_t hi) {
    if (!inverse) {
      for (std::size_t k = lo; k < hi; ++k) fa[k] = a[k] * chirp_[k];
    } else {
      for (std::size_t k = lo; k < hi; ++k) fa[k] = a[k] * std::conj(chirp_[k]);
    }
  });

  sub_->transform_pow2(fa.data(), false, executor);
  const auto& fbs = inverse ? chirp_spectrum_inv_ : chirp_spectrum_fwd_;
  chunked(executor, m_, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fa[i] *= fbs[i];
  });
  sub_->transform_pow2(fa.data(), true, executor);

  const double inv_m = 1.0 / static_cast<double>(m_);
  chunked(executor, n, [&](std::size_t lo, std::size_t hi) {
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
  if (!bitrev_.empty()) transform_pow2(data.data(), false, executor);
  else transform_bluestein(data, false, executor);
}

void FftPlan::backward(std::vector<cd>& data,
                       support::Executor* executor) const {
  assert(data.size() == n_);
  if (n_ <= 1) return;
  if (!bitrev_.empty()) transform_pow2(data.data(), true, executor);
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
  chunked(executor, h - 1, [&](std::size_t lo, std::size_t hi) {
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
