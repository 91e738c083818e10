// The plain-bitset set-bit sampler that pools used before they carried a
// count and rank directory, kept as the reference IndexedBitset::Sample
// must match draw for draw: up to 24 rejection draws over the whole size,
// then a rank drawn from the set-bit count and found by a walk from the
// first word.
#pragma once

#include <bit>
#include <cstdint>

#include "util/bitset.h"
#include "util/rng.h"

namespace phoenix::testing_reference {

inline std::size_t SampleSetBit(const util::Bitset& b, util::Rng& rng) {
  if (b.size() == 0) return SIZE_MAX;
  for (int attempt = 0; attempt < 24; ++attempt) {
    const std::size_t i = rng.NextBounded(b.size());
    if (b.Test(i)) return i;
  }
  const std::size_t count = b.Count();
  if (count == 0) return SIZE_MAX;
  std::size_t rank = rng.NextBounded(count);
  const auto words = b.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    const auto pop = static_cast<std::size_t>(std::popcount(words[w]));
    if (rank < pop) {
      std::uint64_t word = words[w];
      for (std::size_t k = 0; k < rank; ++k) word &= word - 1;
      return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
    }
    rank -= pop;
  }
  return SIZE_MAX;  // unreachable: rank < count
}

}  // namespace phoenix::testing_reference
