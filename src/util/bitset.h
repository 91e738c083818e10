// Dynamic fixed-capacity bitset used for constraint-satisfaction indices.
//
// The cluster keeps, per (attribute, operator, value) predicate, a bitset of
// the machines satisfying it; candidate worker sets are intersections of
// those. Capacity is the cluster size (thousands to tens of thousands of
// bits), set at construction.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace phoenix::util {

class Bitset {
 public:
  explicit Bitset(std::size_t size = 0, bool value = false) { Resize(size, value); }

  void Resize(std::size_t size, bool value = false) {
    size_ = size;
    words_.assign((size + 63) / 64, value ? ~0ULL : 0ULL);
    ClearPadding();
  }

  std::size_t size() const { return size_; }

  void Set(std::size_t i) {
    PHOENIX_DCHECK(i < size_);
    words_[i >> 6] |= 1ULL << (i & 63);
  }

  void Reset(std::size_t i) {
    PHOENIX_DCHECK(i < size_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  bool Test(std::size_t i) const {
    PHOENIX_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void SetAll() {
    for (auto& w : words_) w = ~0ULL;
    ClearPadding();
  }

  void ResetAll() {
    for (auto& w : words_) w = 0;
  }

  /// this &= other. Sizes must match.
  void AndWith(const Bitset& other) {
    PHOENIX_DCHECK(size_ == other.size_);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
  }

  /// this |= other. Sizes must match.
  void OrWith(const Bitset& other) {
    PHOENIX_DCHECK(size_ == other.size_);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  }

  /// Number of set bits.
  std::size_t Count() const {
    std::size_t n = 0;
    for (const auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  /// Number of set bits among the first `n` (n <= size()).
  std::size_t CountPrefix(std::size_t n) const {
    PHOENIX_DCHECK(n <= size_);
    std::size_t count = 0;
    const std::size_t full = n >> 6;
    for (std::size_t w = 0; w < full; ++w) {
      count += static_cast<std::size_t>(std::popcount(words_[w]));
    }
    if ((n & 63) != 0) {
      const std::uint64_t mask = (1ULL << (n & 63)) - 1;
      count += static_cast<std::size_t>(std::popcount(words_[full] & mask));
    }
    return count;
  }

  bool Any() const {
    for (const auto w : words_)
      if (w != 0) return true;
    return false;
  }

  /// Index of the first set bit at or after `from`, or size() if none.
  std::size_t NextSetBit(std::size_t from) const {
    if (from >= size_) return size_;
    std::size_t w = from >> 6;
    std::uint64_t word = words_[w] & (~0ULL << (from & 63));
    while (word == 0) {
      if (++w == words_.size()) return size_;
      word = words_[w];
    }
    return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
  }

  /// Calls f(i) for every set bit i in [lo, hi), in ascending order. Each
  /// word is read once, before its bits are visited, so `f` must not change
  /// this set. Cheaper than a NextSetBit chain, whose every step waits on
  /// the previous index.
  template <typename F>
  void ForEachSetBit(std::size_t lo, std::size_t hi, F&& f) const {
    PHOENIX_DCHECK(hi <= size_);
    if (lo >= hi) return;
    const std::size_t last = (hi - 1) >> 6;
    std::size_t w = lo >> 6;
    std::uint64_t word = words_[w] & (~0ULL << (lo & 63));
    for (;;) {
      if (w == last && (hi & 63) != 0) word &= (1ULL << (hi & 63)) - 1;
      while (word != 0) {
        f((w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
        word &= word - 1;
      }
      if (++w > last) return;
      word = words_[w];
    }
  }

  /// Appends the indices of all set bits to `out`.
  void CollectSetBits(std::vector<std::uint32_t>& out) const {
    ForEachSetBit(0, size_, [&out](std::size_t i) {
      out.push_back(static_cast<std::uint32_t>(i));
    });
  }

  /// Returns a uniformly random set bit, or SIZE_MAX if the bitset is empty.
  ///
  /// Strategy: rejection-sample random positions while the hit rate is good;
  /// after too many misses (sparse set), fall back to an exact rank-select
  /// scan. Expected O(1) for dense sets, O(words) worst case.
  std::size_t SampleSetBit(Rng& rng) const {
    if (size_ == 0) return SIZE_MAX;
    for (int attempt = 0; attempt < 24; ++attempt) {
      const std::size_t i = rng.NextBounded(size_);
      if (Test(i)) return i;
    }
    const std::size_t count = Count();
    if (count == 0) return SIZE_MAX;
    std::size_t rank = rng.NextBounded(count);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const auto pop = static_cast<std::size_t>(std::popcount(words_[w]));
      if (rank < pop) {
        std::uint64_t word = words_[w];
        for (std::size_t k = 0; k < rank; ++k) word &= word - 1;
        return (w << 6) +
               static_cast<std::size_t>(std::countr_zero(word));
      }
      rank -= pop;
    }
    PHOENIX_CHECK_MSG(false, "rank-select fell off the end");
  }

 private:
  // Keeps bits beyond size_ zero so Count()/Any() stay exact.
  void ClearPadding() {
    if (size_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (1ULL << (size_ % 64)) - 1;
    }
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace phoenix::util
