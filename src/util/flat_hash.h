// Open-addressed hash containers for integer keys.
//
// The auditor's in-flight message ledger and the CRV predicate table both
// need O(1) membership over integer ids. std::unordered_* pays a node
// allocation per element and a pointer chase per lookup; these containers
// keep everything in two flat arrays (linear probing, power-of-two
// capacity, backward-shift deletion so no tombstones accumulate).
//
// Keys are std::uint64_t; the all-ones value is reserved as the empty-slot
// sentinel and must never be inserted (the fabric's message ids and the
// CRV's encoded predicates never reach it).
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace phoenix::util {

namespace flat_hash_internal {

inline constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

/// splitmix64 finalizer: full-avalanche mix so sequential ids spread
/// across the table instead of clustering into one probe run.
inline std::size_t MixHash(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<std::size_t>(x);
}

}  // namespace flat_hash_internal

/// Hash set of uint64 keys. Insert/Erase/Contains are O(1) amortized.
class FlatHashSet {
 public:
  FlatHashSet() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    slots_.assign(slots_.size(), flat_hash_internal::kEmptySlot);
    size_ = 0;
  }

  bool Contains(std::uint64_t key) const {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = flat_hash_internal::MixHash(key) & mask;
    while (slots_[i] != flat_hash_internal::kEmptySlot) {
      if (slots_[i] == key) return true;
      i = (i + 1) & mask;
    }
    return false;
  }

  /// Returns true if the key was newly inserted.
  bool Insert(std::uint64_t key) {
    PHOENIX_CHECK_MSG(key != flat_hash_internal::kEmptySlot,
                      "FlatHashSet: reserved sentinel key");
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = flat_hash_internal::MixHash(key) & mask;
    while (slots_[i] != flat_hash_internal::kEmptySlot) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  /// Returns true if the key was present. Backward-shift deletion keeps
  /// probe runs compact (no tombstone slots).
  bool Erase(std::uint64_t key) {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = flat_hash_internal::MixHash(key) & mask;
    while (slots_[i] != key) {
      if (slots_[i] == flat_hash_internal::kEmptySlot) return false;
      i = (i + 1) & mask;
    }
    std::size_t hole = i;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      const std::uint64_t k = slots_[j];
      if (k == flat_hash_internal::kEmptySlot) break;
      const std::size_t ideal = flat_hash_internal::MixHash(k) & mask;
      // k may fill the hole iff its ideal slot is not after the hole in
      // probe order (otherwise moving it would break its own probe run).
      if (((j - ideal) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = k;
        hole = j;
      }
    }
    slots_[hole] = flat_hash_internal::kEmptySlot;
    --size_;
    return true;
  }

  /// Visits every key in unspecified (hash) order. Callers needing a
  /// deterministic order must collect and sort.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::uint64_t k : slots_) {
      if (k != flat_hash_internal::kEmptySlot) fn(k);
    }
  }

 private:
  void Grow() {
    const std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(cap, flat_hash_internal::kEmptySlot);
    const std::size_t mask = cap - 1;
    for (const std::uint64_t k : old) {
      if (k == flat_hash_internal::kEmptySlot) continue;
      std::size_t i = flat_hash_internal::MixHash(k) & mask;
      while (slots_[i] != flat_hash_internal::kEmptySlot) i = (i + 1) & mask;
      slots_[i] = k;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
};

/// Hash map from uint64 keys to trivially-movable values. Same layout and
/// probing as FlatHashSet with a parallel value array. No Erase — the two
/// call sites (CRV predicate table) only ever add or update entries.
template <typename V>
class FlatHashMap {
 public:
  FlatHashMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  V* Find(std::uint64_t key) {
    return const_cast<V*>(
        static_cast<const FlatHashMap*>(this)->Find(key));
  }

  const V* Find(std::uint64_t key) const {
    if (keys_.empty()) return nullptr;
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = flat_hash_internal::MixHash(key) & mask;
    while (keys_[i] != flat_hash_internal::kEmptySlot) {
      if (keys_[i] == key) return &values_[i];
      i = (i + 1) & mask;
    }
    return nullptr;
  }

  /// Returns the value for `key`, default-constructing it on first use.
  V& operator[](std::uint64_t key) {
    PHOENIX_CHECK_MSG(key != flat_hash_internal::kEmptySlot,
                      "FlatHashMap: reserved sentinel key");
    if ((size_ + 1) * 4 > keys_.size() * 3) Grow();
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = flat_hash_internal::MixHash(key) & mask;
    while (keys_[i] != flat_hash_internal::kEmptySlot) {
      if (keys_[i] == key) return values_[i];
      i = (i + 1) & mask;
    }
    keys_[i] = key;
    values_[i] = V{};
    ++size_;
    return values_[i];
  }

  /// Visits (key, value) pairs in unspecified (hash) order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != flat_hash_internal::kEmptySlot) fn(keys_[i], values_[i]);
    }
  }

 private:
  void Grow() {
    const std::size_t cap = keys_.empty() ? 16 : keys_.size() * 2;
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(cap, flat_hash_internal::kEmptySlot);
    values_.assign(cap, V{});
    const std::size_t mask = cap - 1;
    for (std::size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == flat_hash_internal::kEmptySlot) continue;
      std::size_t i = flat_hash_internal::MixHash(old_keys[j]) & mask;
      while (keys_[i] != flat_hash_internal::kEmptySlot) i = (i + 1) & mask;
      keys_[i] = old_keys[j];
      values_[i] = std::move(old_values[j]);
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<V> values_;
  std::size_t size_ = 0;
};

}  // namespace phoenix::util
