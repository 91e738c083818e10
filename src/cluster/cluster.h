// The cluster: a fixed fleet of heterogeneous machines plus a predicate
// index for fast constraint matching.
//
// Probe routing must answer "give me k random machines satisfying this
// constraint set" millions of times per run, so the cluster precomputes one
// bitset per (attribute, operator, value) predicate over the small value
// domains; a constraint set's candidate pool is the AND of its predicates'
// bitsets. Pools are memoized per distinct constraint set, each as an
// immutable util::IndexedBitset that carries its count and rank directory,
// so counting and sampling a pool never walk the whole fleet.
//
// The memoization is safe under concurrent const access: the parallel
// experiment runner shares one Cluster across simultaneous seeded runs, so
// lookups take a shared lock and cold keys are inserted under an exclusive
// lock (std::map nodes are stable, so returned references stay valid
// after the lock is released). Pre-warming via
// runner::PrewarmClusterForTrace keeps the hot path on the shared lock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "cluster/constraint.h"
#include "cluster/machine.h"
#include "util/indexed_bitset.h"
#include "util/rng.h"

namespace phoenix::cluster {

/// Encodes (attr, op, value) into a single ordered key. Attribute values in
/// this codebase are small non-negative integers (see AttrCatalog), so 16
/// bits are plenty. Shared by the cluster's predicate cache and the
/// membership view's eligible-pool cache so both key the same way.
std::uint32_t EncodePredicate(const Constraint& c);

class Cluster {
 public:
  explicit Cluster(std::vector<Machine> machines);

  std::size_t size() const { return machines_.size(); }
  const Machine& machine(MachineId id) const { return machines_[id]; }
  const std::vector<Machine>& machines() const { return machines_; }

  /// Number of distinct racks (failure domains). Machines built without
  /// rack assignment (kInvalidRack) count as one shared pseudo-rack.
  std::size_t num_racks() const { return num_racks_; }
  RackId rack_of(MachineId id) const { return machines_[id].rack; }

  /// Pool of machines satisfying one predicate (memoized). Predicates with
  /// values outside the attribute's domain return a domain-clamped answer
  /// (e.g. "> max_value" yields the empty set).
  const util::IndexedBitset& Satisfying(const Constraint& c) const;

  /// Pool of machines satisfying every constraint in the set (memoized).
  /// The unconstrained set returns the all-machines pool.
  const util::IndexedBitset& Satisfying(const ConstraintSet& cs) const;

  /// Number of machines satisfying the set. O(1) once the pool is cached.
  std::size_t CountSatisfying(const ConstraintSet& cs) const {
    return Satisfying(cs).Count();
  }

  /// Samples one machine uniformly among those satisfying `cs`;
  /// kInvalidMachine if none exists.
  MachineId SampleSatisfying(const ConstraintSet& cs, util::Rng& rng) const;

  /// Samples `k` machines (with replacement, like Sparrow's power-of-d
  /// probing) among those satisfying `cs`. Returns fewer than k only when
  /// the candidate pool is empty.
  std::vector<MachineId> SampleSatisfying(const ConstraintSet& cs,
                                          std::size_t k,
                                          util::Rng& rng) const;

  /// Samples `k` *distinct* machines satisfying `cs` (used by the
  /// centralized planes). Returns all candidates if fewer than k exist.
  std::vector<MachineId> SampleDistinctSatisfying(const ConstraintSet& cs,
                                                  std::size_t k,
                                                  util::Rng& rng) const;

  /// The satisfying pool as a sorted id vector, memoized alongside the
  /// bitset. Distinct sampling runs millions of times per experiment;
  /// collecting the set bits on every call made each draw O(fleet), so the
  /// collected form is cached once per constraint set.
  const std::vector<std::uint32_t>& SatisfyingIds(const ConstraintSet& cs) const;

  /// Partial Fisher–Yates over a *const* candidate list: replays the exact
  /// draw pattern of shuffling a scratch copy, but tracks only the O(k)
  /// displaced values in a small overlay instead of copying the pool.
  /// Shared by Cluster and MembershipView so both consume identical RNG
  /// streams for identical pools.
  static std::vector<MachineId> SampleDistinctFromIds(
      const std::vector<std::uint32_t>& ids, std::size_t k, util::Rng& rng);

  // Canonical key for memoizing constraint-set pools. hard/soft does not
  // affect matching, so it is excluded. Public so the membership view's
  // per-epoch pool cache can key identically.
  using SetKey = std::vector<std::uint32_t>;
  static SetKey KeyFor(const ConstraintSet& cs);

 private:
  // Lazily built eligibility indices, shared by all runs over this cluster:
  // per-predicate bitsets keyed by the encoded (attr, op, value) triple
  // (the distinct-predicate count is bounded by the small value domains, so
  // each is computed once by a single fleet scan) and per-constraint-set
  // pools. Guarded by `mu` for concurrent const access; held behind a
  // unique_ptr so Cluster stays movable (shared_mutex is not).
  struct EligibilityCaches {
    std::shared_mutex mu;
    std::map<std::uint32_t, util::IndexedBitset> predicates;
    std::map<SetKey, util::IndexedBitset> pools;
    /// Collected set-bit vectors of `pools` entries (see SatisfyingIds).
    std::map<SetKey, std::vector<std::uint32_t>> pool_ids;
  };

  std::vector<Machine> machines_;
  util::IndexedBitset all_;
  std::vector<std::uint32_t> all_ids_;  // 0..n-1, the unconstrained pool
  std::size_t num_racks_ = 1;
  std::unique_ptr<EligibilityCaches> caches_;
};

}  // namespace phoenix::cluster
