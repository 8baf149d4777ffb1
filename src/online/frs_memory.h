// Multiscale memory-parameter estimator for the arrival counting process,
// after Faÿ, Roueff & Soulier ("Estimation of the memory parameter of the
// infinite-source Poisson process", PAPERS.md).
//
// FRS estimate the memory parameter of an infinite-source Poisson arrival
// process from the second-order behaviour of its counting measure across
// dyadic observation scales: with heavy-tailed sessions (index alpha in
// (1, 2)) the count variance over windows of length s grows like s^{2H}
// with H = (3 - alpha) / 2, while a memoryless (Poisson) stream gives the
// linear Var ~ s, i.e. H = 1/2. The estimator here is the streaming form of
// that statistic: block sums of the per-bin arrival counts at scales
// 1, 2, 4, ... 2^{J-1} bins, the per-scale population variance, and a
// log2-log2 regression whose slope is 2H. It needs only the windowed bin
// counts the OnlineAnalyzer already maintains — no sorting, no FFT, no
// second pass over raw arrivals — so it is the point-process companion to
// the windowed variance-time estimator on the same ring.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/prefix_moments.h"
#include "support/result.h"

namespace fullweb::online {

struct FrsOptions {
  std::size_t scales = 6;      ///< dyadic scales 2^0 .. 2^{scales-1} bins
  std::size_t min_blocks = 4;  ///< drop scales with fewer complete blocks
};

struct FrsScalePoint {
  std::size_t scale_bins = 0;  ///< block length in bins (2^j)
  std::size_t blocks = 0;      ///< complete blocks at this scale
  double variance = 0.0;       ///< population variance of the block sums
};

struct FrsEstimate {
  double h = 0.5;              ///< memory parameter as a Hurst exponent
  double d = 0.0;              ///< LRD memory parameter, d = H - 1/2
  double alpha_implied = 2.0;  ///< session tail index via alpha = 3 - 2H
  double r_squared = 0.0;      ///< quality of the log2 Var vs scale fit
  std::vector<FrsScalePoint> points;  ///< scales actually used in the fit
};

/// Estimate the memory parameter from per-bin arrival counts. Errors when
/// fewer than three scales have min_blocks complete blocks and positive
/// variance (insufficient_data) — constant or empty streams land here
/// rather than producing a garbage slope.
[[nodiscard]] support::Result<FrsEstimate> frs_memory_from_counts(
    std::span<const double> counts, const FrsOptions& options = {});

/// Same, against a prebuilt prefix-moment structure of the counts (shared
/// with the variance-time estimator on the same window).
[[nodiscard]] support::Result<FrsEstimate> frs_memory_from_counts(
    const stats::PrefixMoments& pm, const FrsOptions& options = {});

}  // namespace fullweb::online
