#include "cluster/cluster.h"

#include <algorithm>
#include <mutex>
#include <set>

#include "util/check.h"

namespace phoenix::cluster {

std::uint32_t EncodePredicate(const Constraint& c) {
  PHOENIX_CHECK_MSG(c.value >= 0 && c.value < (1 << 16),
                    "constraint value out of encodable range");
  return (static_cast<std::uint32_t>(c.attr) << 20) |
         (static_cast<std::uint32_t>(c.op) << 16) |
         static_cast<std::uint32_t>(c.value);
}

Cluster::Cluster(std::vector<Machine> machines)
    : machines_(std::move(machines)),
      all_(util::Bitset(machines_.size(), /*value=*/true)),
      caches_(std::make_unique<EligibilityCaches>()) {
  PHOENIX_CHECK_MSG(!machines_.empty(), "cluster must have at least one machine");
  std::set<RackId> racks;
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    PHOENIX_CHECK_MSG(machines_[i].id == i,
                      "machine ids must be dense and ordered");
    racks.insert(machines_[i].rack);
  }
  num_racks_ = racks.size();
  all_ids_.resize(machines_.size());
  for (std::size_t i = 0; i < all_ids_.size(); ++i) {
    all_ids_[i] = static_cast<std::uint32_t>(i);
  }
}

// Both caches follow the same discipline: shared-lock lookup, then (miss)
// compute the pool and its directory outside any lock and insert under an
// exclusive lock, keeping the existing entry if another thread raced us
// there. std::map guarantees node stability, so the returned reference
// outlives the lock; entries are never erased or changed for the life of
// the cluster.
const util::IndexedBitset& Cluster::Satisfying(const Constraint& c) const {
  const std::uint32_t key = EncodePredicate(c);
  {
    std::shared_lock lock(caches_->mu);
    const auto it = caches_->predicates.find(key);
    if (it != caches_->predicates.end()) return it->second;
  }
  util::Bitset bits(machines_.size());
  for (const auto& m : machines_) {
    if (m.Satisfies(c)) bits.Set(m.id);
  }
  util::IndexedBitset pool(std::move(bits));
  std::unique_lock lock(caches_->mu);
  return caches_->predicates.emplace(key, std::move(pool)).first->second;
}

Cluster::SetKey Cluster::KeyFor(const ConstraintSet& cs) {
  SetKey key;
  key.reserve(cs.size());
  for (const auto& c : cs) key.push_back(EncodePredicate(c));
  std::sort(key.begin(), key.end());
  return key;
}

const util::IndexedBitset& Cluster::Satisfying(const ConstraintSet& cs) const {
  if (cs.empty()) return all_;
  const SetKey key = KeyFor(cs);
  {
    std::shared_lock lock(caches_->mu);
    const auto it = caches_->pools.find(key);
    if (it != caches_->pools.end()) return it->second;
  }
  // Compute with no lock held: the per-predicate lookups below take the
  // same mutex themselves.
  util::Bitset bits = Satisfying(cs[0]).bits();
  for (std::size_t i = 1; i < cs.size(); ++i) {
    bits.AndWith(Satisfying(cs[i]).bits());
  }
  util::IndexedBitset pool(std::move(bits));
  std::unique_lock lock(caches_->mu);
  return caches_->pools.emplace(key, std::move(pool)).first->second;
}

MachineId Cluster::SampleSatisfying(const ConstraintSet& cs,
                                    util::Rng& rng) const {
  const std::size_t bit = Satisfying(cs).Sample(rng);
  return bit == SIZE_MAX ? kInvalidMachine : static_cast<MachineId>(bit);
}

std::vector<MachineId> Cluster::SampleSatisfying(const ConstraintSet& cs,
                                                 std::size_t k,
                                                 util::Rng& rng) const {
  std::vector<MachineId> out;
  const util::IndexedBitset& pool = Satisfying(cs);
  if (!pool.Any()) return out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(static_cast<MachineId>(pool.Sample(rng)));
  }
  return out;
}

const std::vector<std::uint32_t>& Cluster::SatisfyingIds(
    const ConstraintSet& cs) const {
  if (cs.empty()) return all_ids_;
  const SetKey key = KeyFor(cs);
  {
    std::shared_lock lock(caches_->mu);
    const auto it = caches_->pool_ids.find(key);
    if (it != caches_->pool_ids.end()) return it->second;
  }
  std::vector<std::uint32_t> ids;
  Satisfying(cs).CollectSetBits(ids);
  std::unique_lock lock(caches_->mu);
  return caches_->pool_ids.emplace(key, std::move(ids)).first->second;
}

std::vector<MachineId> Cluster::SampleDistinctFromIds(
    const std::vector<std::uint32_t>& ids, std::size_t k, util::Rng& rng) {
  if (ids.size() <= k) {
    return {ids.begin(), ids.end()};
  }
  // Partial Fisher–Yates, replayed against the shared (immutable) candidate
  // list. A real shuffle would swap a[i] <-> a[j] on a scratch copy; here
  // the O(k) displaced values live in a tiny overlay instead. Slot i is
  // never read after step i (future draws land in [i+1, n)), so only the
  // write into slot j needs recording. The draw sequence — one
  // NextBounded(n - i) per step — is identical to the copying version.
  std::vector<std::pair<std::size_t, std::uint32_t>> overlay;
  overlay.reserve(k);
  const auto read = [&](std::size_t idx) {
    for (const auto& [at, value] : overlay) {
      if (at == idx) return value;
    }
    return ids[idx];
  };
  std::vector<MachineId> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.NextBounded(ids.size() - i));
    const std::uint32_t taken = read(j);  // a[j] before the swap -> a[i]
    if (j != i) {
      const std::uint32_t displaced = read(i);  // a[i] moves into slot j
      bool updated = false;
      for (auto& [at, value] : overlay) {
        if (at == j) {
          value = displaced;
          updated = true;
          break;
        }
      }
      if (!updated) overlay.emplace_back(j, displaced);
    }
    out.push_back(static_cast<MachineId>(taken));
  }
  return out;
}

std::vector<MachineId> Cluster::SampleDistinctSatisfying(
    const ConstraintSet& cs, std::size_t k, util::Rng& rng) const {
  return SampleDistinctFromIds(SatisfyingIds(cs), k, rng);
}

}  // namespace phoenix::cluster
