#include "cluster/membership.h"

#include <algorithm>
#include <mutex>

#include "util/check.h"

namespace phoenix::cluster {

MembershipView::MembershipView(const Cluster& cluster,
                               std::size_t guaranteed_active)
    : cluster_(cluster), guaranteed_(guaranteed_active),
      states_(cluster.size(), MachineLifecycle::kParked),
      bindable_(cluster.size()), parked_(cluster.size()),
      cache_(std::make_unique<PoolCache>()) {
  PHOENIX_CHECK_MSG(guaranteed_active > 0,
                    "the guaranteed base fleet cannot be empty");
  PHOENIX_CHECK_MSG(guaranteed_active <= cluster.size(),
                    "guaranteed base fleet exceeds the machine universe");
  for (std::size_t i = guaranteed_; i < cluster.size(); ++i) {
    parked_.Set(i);
  }
  parked_count_ = cluster.size() - guaranteed_;
  for (std::size_t i = 0; i < guaranteed_; ++i) {
    states_[i] = MachineLifecycle::kActive;
    bindable_.Set(i);
  }
  bindable_count_ = guaranteed_;
  in_service_count_ = guaranteed_;
}

void MembershipView::SetState(MachineId id, MachineLifecycle next) {
  PHOENIX_CHECK(id < states_.size());
  const MachineLifecycle cur = states_[id];
  switch (next) {
    case MachineLifecycle::kProvisioning:
      PHOENIX_CHECK_MSG(cur == MachineLifecycle::kParked ||
                            cur == MachineLifecycle::kRetired,
                        "provision requires a parked or retired machine");
      break;
    case MachineLifecycle::kActive:
      PHOENIX_CHECK_MSG(cur == MachineLifecycle::kProvisioning,
                        "commission requires a provisioning machine");
      break;
    case MachineLifecycle::kDraining:
      PHOENIX_CHECK_MSG(cur == MachineLifecycle::kActive,
                        "drain requires an active machine");
      PHOENIX_CHECK_MSG(id >= guaranteed_,
                        "the guaranteed base fleet is never drained");
      break;
    case MachineLifecycle::kRetired:
      PHOENIX_CHECK_MSG(cur == MachineLifecycle::kDraining,
                        "retire requires a draining machine");
      break;
    case MachineLifecycle::kParked:
      // Power management returns machines to deep sleep: an idle active
      // machine parks directly, and a drained machine parks instead of
      // retiring (it can be woken at S3-exit latency instead of paying a
      // full provisioning warm-up).
      PHOENIX_CHECK_MSG(cur == MachineLifecycle::kActive ||
                            cur == MachineLifecycle::kDraining,
                        "park requires an active or draining machine");
      break;
  }
  states_[id] = next;
  const bool bindable = next == MachineLifecycle::kActive;
  if (bindable != bindable_.Test(id)) {
    if (bindable) {
      bindable_.Set(id);
      ++bindable_count_;
    } else {
      bindable_.Reset(id);
      --bindable_count_;
    }
  }
  if (next == MachineLifecycle::kActive) ++in_service_count_;
  if (next == MachineLifecycle::kRetired) --in_service_count_;
  if (next == MachineLifecycle::kParked) --in_service_count_;
  if (next == MachineLifecycle::kParked) {
    parked_.Set(id);
    ++parked_count_;
  } else if (cur == MachineLifecycle::kParked) {
    parked_.Reset(id);
    --parked_count_;
  }
  ++epoch_;
  // Membership changed: every memoized eligible pool is stale.
  std::unique_lock lock(cache_->mu);
  cache_->pools.clear();
  cache_->pool_ids.clear();
  cache_->predicate_counts.clear();
  cache_->parked_predicate_counts.clear();
}

std::size_t MembershipView::CountParkedSatisfying(const Constraint& c) const {
  const std::uint32_t key = EncodePredicate(c);
  {
    std::shared_lock lock(cache_->mu);
    const auto it = cache_->parked_predicate_counts.find(key);
    if (it != cache_->parked_predicate_counts.end()) return it->second;
  }
  util::Bitset pool = cluster_.Satisfying(c).bits();
  pool.AndWith(parked_);
  const std::size_t count = pool.Count();
  std::unique_lock lock(cache_->mu);
  cache_->parked_predicate_counts.emplace(key, count);
  return count;
}

const util::IndexedBitset& MembershipView::EligiblePool(
    const ConstraintSet& cs) const {
  const Cluster::SetKey key = Cluster::KeyFor(cs);
  {
    std::shared_lock lock(cache_->mu);
    const auto it = cache_->pools.find(key);
    if (it != cache_->pools.end()) return it->second;
  }
  // A copy; all-ones when `cs` is empty.
  util::Bitset bits = cluster_.Satisfying(cs).bits();
  bits.AndWith(bindable_);
  util::IndexedBitset pool(std::move(bits));
  std::unique_lock lock(cache_->mu);
  return cache_->pools.emplace(key, std::move(pool)).first->second;
}

std::size_t MembershipView::CountEligible(const Constraint& c) const {
  const std::uint32_t key = EncodePredicate(c);
  {
    std::shared_lock lock(cache_->mu);
    const auto it = cache_->predicate_counts.find(key);
    if (it != cache_->predicate_counts.end()) return it->second;
  }
  util::Bitset pool = cluster_.Satisfying(c).bits();
  pool.AndWith(bindable_);
  const std::size_t count = pool.Count();
  std::unique_lock lock(cache_->mu);
  cache_->predicate_counts.emplace(key, count);
  return count;
}

// The guaranteed base fleet is the id prefix [0, guaranteed_).
std::size_t MembershipView::CountAdmissible(const ConstraintSet& cs) const {
  return cluster_.Satisfying(cs).CountPrefix(guaranteed_);
}

std::size_t MembershipView::CountAdmissible(const Constraint& c) const {
  return cluster_.Satisfying(c).CountPrefix(guaranteed_);
}

MachineId MembershipView::SampleEligible(const ConstraintSet& cs,
                                         util::Rng& rng) const {
  const std::size_t bit = EligiblePool(cs).Sample(rng);
  return bit == SIZE_MAX ? kInvalidMachine : static_cast<MachineId>(bit);
}

std::vector<MachineId> MembershipView::SampleEligible(const ConstraintSet& cs,
                                                      std::size_t k,
                                                      util::Rng& rng) const {
  std::vector<MachineId> out;
  const util::IndexedBitset& pool = EligiblePool(cs);
  if (!pool.Any()) return out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(static_cast<MachineId>(pool.Sample(rng)));
  }
  return out;
}

const std::vector<std::uint32_t>& MembershipView::EligibleIds(
    const ConstraintSet& cs) const {
  const Cluster::SetKey key = Cluster::KeyFor(cs);
  {
    std::shared_lock lock(cache_->mu);
    const auto it = cache_->pool_ids.find(key);
    if (it != cache_->pool_ids.end()) return it->second;
  }
  std::vector<std::uint32_t> ids;
  EligiblePool(cs).CollectSetBits(ids);
  std::unique_lock lock(cache_->mu);
  return cache_->pool_ids.emplace(key, std::move(ids)).first->second;
}

std::vector<MachineId> MembershipView::SampleDistinctEligible(
    const ConstraintSet& cs, std::size_t k, util::Rng& rng) const {
  // Same draw pattern as Cluster::SampleDistinctSatisfying — see the
  // determinism contract above.
  return Cluster::SampleDistinctFromIds(EligibleIds(cs), k, rng);
}

}  // namespace phoenix::cluster
