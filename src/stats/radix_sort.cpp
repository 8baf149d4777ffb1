#include "stats/descriptive.h"

#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace fullweb::stats {

void radix_sort(std::span<double> xs) {
  const std::size_t n = xs.size();
  if (n < 2) return;
  // A non-negative double's bits gain the sign bit, a negative one's are
  // all flipped, so unsigned key order is numeric order.
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  std::vector<std::uint64_t> keys(n);
  std::vector<std::uint64_t> scratch(n);
  std::array<std::array<std::size_t, 256>, 8> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = std::bit_cast<std::uint64_t>(xs[i]);
    const std::uint64_t key = b ^ ((std::uint64_t{0} - (b >> 63)) | kSign);
    keys[i] = key;
    for (std::size_t d = 0; d < 8; ++d) ++counts[d][(key >> (8 * d)) & 0xff];
  }
  for (std::size_t d = 0; d < 8; ++d) {
    auto& offsets = counts[d];
    const unsigned shift = 8 * static_cast<unsigned>(d);
    if (offsets[(keys[0] >> shift) & 0xff] == n) continue;
    std::size_t sum = 0;
    for (auto& c : offsets) sum += std::exchange(c, sum);
    for (const std::uint64_t key : keys) scratch[offsets[(key >> shift) & 0xff]++] = key;
    keys.swap(scratch);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = keys[i];
    xs[i] = std::bit_cast<double>(key ^ (((key >> 63) - 1) | kSign));
  }
}

}  // namespace fullweb::stats
