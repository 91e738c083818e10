// An immutable bitset indexed by its set-bit count and a rank directory:
// the form every cached constraint pool takes.
//
// Probe routing samples machines from a constraint set's pool millions of
// times per run. Rejection sampling hits at once on a dense pool; on a
// sparse one it misses and must pick the rank-th set bit, which over a
// plain Bitset popcounts every word twice (the count, then the walk). Here
// the count and the cumulative count before each 512-bit block are
// computed once, when the pool is built: Count() is O(1), and CountPrefix
// and Select read one directory entry plus at most eight word popcounts.
// The value never changes after construction, so the directory cannot go
// stale and parallel runs can share one pool.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/bitset.h"
#include "util/check.h"
#include "util/rng.h"

namespace phoenix::util {

class IndexedBitset {
 public:
  explicit IndexedBitset(Bitset bits) : bits_(std::move(bits)) {
    const std::span<const std::uint64_t> words = bits_.words();
    rank_.reserve((words.size() + kBlockWords - 1) / kBlockWords + 1);
    std::uint32_t total = 0;
    for (std::size_t w = 0; w < words.size(); ++w) {
      if (w % kBlockWords == 0) rank_.push_back(total);
      total += static_cast<std::uint32_t>(std::popcount(words[w]));
    }
    rank_.push_back(total);
  }

  const Bitset& bits() const { return bits_; }
  std::size_t size() const { return bits_.size(); }
  bool Test(std::size_t i) const { return bits_.Test(i); }

  /// Number of set bits.
  std::size_t Count() const { return rank_.back(); }
  bool Any() const { return Count() != 0; }

  /// Number of set bits among the first `n` (n <= size()).
  std::size_t CountPrefix(std::size_t n) const {
    PHOENIX_DCHECK(n <= size());
    const std::span<const std::uint64_t> words = bits_.words();
    const std::size_t full = n >> 6;  // whole words before bit n
    const std::size_t block = full / kBlockWords;
    std::size_t count = rank_[block];
    for (std::size_t w = block * kBlockWords; w < full; ++w) {
      count += static_cast<std::size_t>(std::popcount(words[w]));
    }
    if ((n & 63) != 0) {
      const std::uint64_t mask = (1ULL << (n & 63)) - 1;
      count += static_cast<std::size_t>(std::popcount(words[full] & mask));
    }
    return count;
  }

  std::size_t NextSetBit(std::size_t from) const {
    return bits_.NextSetBit(from);
  }
  void CollectSetBits(std::vector<std::uint32_t>& out) const {
    bits_.CollectSetBits(out);
  }

  /// Index of the set bit of rank `rank` (rank < Count()), counting from 0.
  std::size_t Select(std::size_t rank) const {
    PHOENIX_DCHECK(rank < Count());
    // The last block whose cumulative count is <= rank holds the bit.
    const auto block = std::upper_bound(rank_.begin(), rank_.end(), rank) - 1;
    rank -= *block;
    const std::span<const std::uint64_t> words = bits_.words();
    const auto first =
        static_cast<std::size_t>(block - rank_.begin()) * kBlockWords;
    const std::size_t last = std::min(first + kBlockWords, words.size());
    for (std::size_t w = first; w < last; ++w) {
      const auto pop = static_cast<std::size_t>(std::popcount(words[w]));
      if (rank < pop) {
        std::uint64_t word = words[w];
        for (std::size_t k = 0; k < rank; ++k) word &= word - 1;
        return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      }
      rank -= pop;
    }
    PHOENIX_CHECK_MSG(false, "rank-select fell off the end");
  }

  /// Returns a uniformly random set bit, or SIZE_MAX if there is none.
  ///
  /// Rejection-samples up to 24 random positions, then draws a rank among
  /// the set bits and selects it. An empty pool of nonzero size still makes
  /// all 24 draws before it gives up: these are the draws the plain-bitset
  /// sampler made, and every schedule depends on them.
  std::size_t Sample(Rng& rng) const {
    const std::size_t n = size();
    if (n == 0) return SIZE_MAX;
    for (int attempt = 0; attempt < 24; ++attempt) {
      const std::size_t i = rng.NextBounded(n);
      if (Test(i)) return i;
    }
    if (Count() == 0) return SIZE_MAX;
    return Select(rng.NextBounded(Count()));
  }

 private:
  static constexpr std::size_t kBlockWords = 8;  // 512 bits

  Bitset bits_;
  // Set bits before each block, then the total: one entry per block plus
  // one.
  std::vector<std::uint32_t> rank_;
};

}  // namespace phoenix::util
