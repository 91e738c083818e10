// Cluster membership view: which machines of the fixed universe are
// currently part of the schedulable fleet.
//
// The elastic subsystem models capacity change over an immutable machine
// universe (the Cluster): every machine that could ever join the fleet is
// built up front, and a MembershipView tracks each one through the
// lifecycle
//
//   parked -> provisioning -> active -> draining -> retired
//                                          (retired -> provisioning re-leases)
//
// Power management (src/power) adds the return edges active -> parked and
// draining -> parked: an idle machine can be put into deep sleep, and a
// drained machine can sleep instead of retiring, to be woken later at its
// S3-exit latency instead of a full provisioning warm-up.
//
// Only *active* machines accept new bindings (probes, bound tasks, steals);
// a draining machine finishes the bound work it already holds and nothing
// else. The view layers a second eligibility cache over the cluster's
// per-predicate bitsets: an eligible pool is (satisfying pool AND bindable
// bitset), memoized per constraint set as an immutable IndexedBitset and
// invalidated wholesale whenever membership changes (the epoch counter).
// Lookups follow the same shared_mutex discipline as Cluster's caches, so
// the parallel experiment runner can share a view-less cluster while
// elastic runs each own a view.
//
// Determinism contract: the sampling helpers mirror Cluster's algorithms
// bit for bit — a view with every machine active consumes the identical RNG
// stream as the membership-free path, which is what keeps static-fleet runs
// byte-identical with the elastic code linked in.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "cluster/cluster.h"

namespace phoenix::cluster {

enum class MachineLifecycle : std::uint8_t {
  kParked,        // in the universe, not leased; invisible to schedulers
  kProvisioning,  // lease started, warming up; not yet bindable
  kActive,        // full fleet member; accepts new bindings
  kDraining,      // finishes held bound work; accepts nothing new
  kRetired,       // lease ended; may be re-leased (-> provisioning)
};

class MembershipView {
 public:
  /// Machines with id < `guaranteed_active` start active and form the
  /// guaranteed base fleet (never drained by the elasticity controller);
  /// the rest start parked. The view borrows the cluster, which must
  /// outlive it.
  MembershipView(const Cluster& cluster, std::size_t guaranteed_active);

  MembershipView(const MembershipView&) = delete;
  MembershipView& operator=(const MembershipView&) = delete;

  const Cluster& cluster() const { return cluster_; }
  std::size_t size() const { return states_.size(); }
  std::size_t guaranteed_active() const { return guaranteed_; }

  MachineLifecycle state(MachineId id) const { return states_[id]; }
  /// Accepts new bindings (== active).
  bool Bindable(MachineId id) const {
    return states_[id] == MachineLifecycle::kActive;
  }
  /// Holds fleet capacity (active or draining).
  bool InService(MachineId id) const {
    return states_[id] == MachineLifecycle::kActive ||
           states_[id] == MachineLifecycle::kDraining;
  }

  std::size_t bindable_count() const { return bindable_count_; }
  std::size_t in_service_count() const { return in_service_count_; }
  std::size_t parked_count() const { return parked_count_; }
  /// Bumped on every SetState; pool caches key their validity on it.
  std::uint64_t epoch() const { return epoch_; }

  /// Advances `id` through the lifecycle. Legal transitions: parked or
  /// retired -> provisioning, provisioning -> active, active -> draining,
  /// draining -> retired, and active/draining -> parked (power management
  /// returns machines to deep sleep). Anything else aborts (the controllers
  /// own the policy; the view enforces the state machine).
  void SetState(MachineId id, MachineLifecycle next);

  /// Bindable machines satisfying `cs`: the cluster pool AND the bindable
  /// bitset, memoized until the next membership change.
  const util::IndexedBitset& EligiblePool(const ConstraintSet& cs) const;
  std::size_t CountEligible(const ConstraintSet& cs) const {
    return EligiblePool(cs).Count();
  }
  /// Bindable machines satisfying the single predicate.
  std::size_t CountEligible(const Constraint& c) const;

  /// Machines in the *guaranteed base fleet* satisfying `cs`. Admission
  /// control checks satisfiability against this: the controller never
  /// drains the base fleet, so a constraint set admissible here stays
  /// eligible somewhere for the whole run regardless of churn.
  std::size_t CountAdmissible(const ConstraintSet& cs) const;
  std::size_t CountAdmissible(const Constraint& c) const;

  /// Parked machines satisfying the single predicate, memoized per epoch.
  /// Wake-aware CRV supply counts these at a wake-cost discount: sleeping
  /// capacity that could cover a hot predicate is still supply.
  std::size_t CountParkedSatisfying(const Constraint& c) const;

  // Sampling over the eligible pool. These mirror Cluster::Sample* exactly
  // (same draw pattern per call) — see the determinism contract above.
  MachineId SampleEligible(const ConstraintSet& cs, util::Rng& rng) const;
  std::vector<MachineId> SampleEligible(const ConstraintSet& cs,
                                        std::size_t k, util::Rng& rng) const;
  std::vector<MachineId> SampleDistinctEligible(const ConstraintSet& cs,
                                                std::size_t k,
                                                util::Rng& rng) const;

  /// The eligible pool as a sorted id vector, memoized per epoch alongside
  /// the bitset (same motivation as Cluster::SatisfyingIds).
  const std::vector<std::uint32_t>& EligibleIds(const ConstraintSet& cs) const;

 private:
  const Cluster& cluster_;
  std::size_t guaranteed_ = 0;
  std::vector<MachineLifecycle> states_;
  util::Bitset bindable_;
  util::Bitset parked_;
  std::size_t bindable_count_ = 0;
  std::size_t in_service_count_ = 0;
  std::size_t parked_count_ = 0;
  std::uint64_t epoch_ = 0;

  // Per-epoch eligible pools (cluster pool AND bindable), cleared on every
  // membership change. Same discipline as Cluster::EligibilityCaches:
  // shared-lock lookup, compute unlocked, exclusive-lock insert; map nodes
  // are stable so returned references survive until the epoch flips (the
  // simulation thread that flips epochs is the one consuming the refs, so
  // no reference outlives its epoch).
  struct PoolCache {
    std::shared_mutex mu;
    std::map<Cluster::SetKey, util::IndexedBitset> pools;
    std::map<Cluster::SetKey, std::vector<std::uint32_t>> pool_ids;
    std::map<std::uint32_t, std::size_t> predicate_counts;
    std::map<std::uint32_t, std::size_t> parked_predicate_counts;
  };
  std::unique_ptr<PoolCache> cache_;
};

}  // namespace phoenix::cluster
