// Deterministic Monte Carlo replicate runner.
//
// Fans `replicates` independent draws out on the Executor, giving replicate
// b the b-th leaf substream of a caller-provided RngSplitter — the same
// pattern tail::curvature_test uses — and collecting results into a slot
// vector indexed by replicate. Because stream(b) is a pure function of the
// splitter base and results are written by index, a run is bit-identical at
// any thread count, which is what lets the selftest gate "1 thread == 8
// threads" on the serialized report.
#pragma once

#include <cstddef>
#include <vector>

#include "support/executor.h"
#include "support/rng.h"

namespace fullweb::validation {

/// Run fn(replicate_index, rng) for each replicate and return the results
/// in replicate order. `fn` must be safe to call concurrently from executor
/// workers (it receives a private Rng and must not touch shared mutable
/// state). T must be default-constructible.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> monte_carlo(std::size_t replicates,
                                         support::RngSplitter& streams,
                                         support::Executor& executor, Fn&& fn) {
  // Streams are drawn serially up front: RngSplitter's cursor is stateful,
  // and sequential access is O(1) amortized.
  std::vector<support::Rng> replicate_rngs;
  replicate_rngs.reserve(replicates);
  for (std::size_t b = 0; b < replicates; ++b)
    replicate_rngs.push_back(streams.stream(b));

  std::vector<T> slots(replicates);
  executor.parallel_for(0, replicates, [&](std::size_t b) {
    slots[b] = fn(b, replicate_rngs[b]);
  });
  return slots;
}

}  // namespace fullweb::validation
