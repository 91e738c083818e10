// Dynamic fixed-capacity bitset used for constraint-satisfaction indices.
//
// The cluster keeps, per (attribute, operator, value) predicate, a bitset of
// the machines satisfying it; candidate worker sets are intersections of
// those. Capacity is the cluster size (thousands to tens of thousands of
// bits), set at construction. A Bitset keeps no derived state, so its
// mutable users (live sets, membership sets) pay nothing beyond the words;
// cached pools wrap theirs in an IndexedBitset (util/indexed_bitset.h).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

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

  /// The backing words, lowest bits first; bits past size() are zero.
  std::span<const std::uint64_t> words() const { return words_; }

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
