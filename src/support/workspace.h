// Per-thread reusable scratch arena for the hot kernels.
//
// The spectral and tail paths used to allocate (and fault in) large buffers
// on every call: the FFT padded to 2n, the Bluestein convolution scratch,
// one sample vector per curvature replicate, a sorted copy per Hill/LLCD
// fit. Workspace keeps one buffer per (thread, slot) and lets those kernels
// reuse it: capacity survives across calls, so steady-state sweeps
// (curvature Monte-Carlo, validation replicates, periodogram sweeps) stop
// paying the allocator.
//
// Ownership contract (enforced by convention, documented in DESIGN.md §5.6):
//   - a slot has exactly one owning kernel along any call chain, so a caller
//     holding slot A may invoke a callee that uses slot B but never one that
//     reuses A (the slot table below encodes the call graph);
//   - buffers carry garbage from previous calls: owners must fully overwrite
//     before reading, and must never branch on leftover contents (that would
//     break run-to-run determinism);
//   - never hold a span into a slot across an Executor wait/parallel_for —
//     a worker that helps with stolen tasks would reuse its own arena.
//
// Thread safety: for_thread() hands each thread its own arena (thread_local),
// so there is no sharing and nothing to lock; TSan-clean by construction.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <vector>

namespace fullweb::support {

class Workspace {
 public:
  static constexpr std::size_t kSlots = 8;

  [[nodiscard]] std::vector<double>& real(std::size_t slot) noexcept {
    return real_[slot];
  }
  [[nodiscard]] std::vector<std::complex<double>>& cplx(
      std::size_t slot) noexcept {
    return cplx_[slot];
  }

  /// The calling thread's arena (main thread and every executor worker get
  /// their own).
  static Workspace& for_thread() noexcept;

 private:
  std::array<std::vector<double>, kSlots> real_;
  std::array<std::vector<std::complex<double>>, kSlots> cplx_;
};

/// Slot assignments. One owner per slot per call chain; see the contract
/// above before adding a user.
namespace ws {
// real() slots
inline constexpr std::size_t kTailSorted = 1;       ///< tail::hill_plot / llcd_fit positive-sample buffer
inline constexpr std::size_t kCurvatureSample = 2;  ///< tail::curvature_test MC replicate sample
inline constexpr std::size_t kFftStage = 4;         ///< stats::acf / periodogram real input staging
// cplx() slots
inline constexpr std::size_t kSpectrum = 0;      ///< stats::acf / periodogram spectrum buffer
inline constexpr std::size_t kRealFftHalf = 1;   ///< stats::fft_real packed half-length buffer
inline constexpr std::size_t kBluestein = 2;     ///< FftPlan Bluestein convolution scratch
inline constexpr std::size_t kFgnDraw = 3;       ///< timeseries::generate_fgn random spectrum
}  // namespace ws

}  // namespace fullweb::support
