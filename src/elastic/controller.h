// Elasticity controller: drives machine lifecycle over a MembershipView.
//
// The controller ticks once per scheduler heartbeat period, scheduled
// *after* the heartbeat so the tick always sees freshly synced load signals.
// Each tick it
//
//   1. tops the transient pool up to its lease target,
//   2. plays the stochastic reclamation stream over active transient
//      leases (deterministic per-seed: a private RNG, hazard p = 1 -
//      exp(-rate * dt), drawn in ascending machine-id order),
//   3. polls draining machines for an early graceful retire, and
//   4. makes at most one reactive scaling decision: cluster-wide mean
//      M/G/1 E[W] against the target band, scaling the reserve pool up
//      (through provisioning -> warm-up -> commission) or down (drain,
//      then retire at the grace deadline, forced if work remains).
//
// Scale-ups under Phoenix consult the CRV table: the new machine is the
// reserve candidate satisfying the most queued demand on the hottest
// dimension (CRV-aware supply shaping). Other schedulers take the lowest-id
// candidate.
#pragma once

#include <cstdint>
#include <map>

#include "cluster/membership.h"
#include "elastic/config.h"
#include "sched/base.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace phoenix::core {
class PhoenixScheduler;
}  // namespace phoenix::core

namespace phoenix::elastic {

class ElasticityController {
 public:
  /// The view must already be attached to the scheduler (SetMembership) and
  /// its guaranteed prefix must match config.base_machines. All three
  /// references must outlive the controller.
  ElasticityController(sim::Engine& engine, sched::SchedulerBase& scheduler,
                       cluster::MembershipView& view,
                       const ElasticConfig& config);

  ElasticityController(const ElasticityController&) = delete;
  ElasticityController& operator=(const ElasticityController&) = delete;

  /// Opens the initial transient leases and schedules the recurring tick.
  /// Call after SubmitTrace (the heartbeat must be registered first so
  /// same-instant ticks run after it).
  void Start();

 private:
  void Tick();
  /// Opens leases until transient pool members (provisioning or active)
  /// reach the target.
  void LeaseTransients();
  /// One reclamation draw per active transient lease, ascending id.
  void CheckReclamation(double dt);
  /// Tries an early graceful retire of every draining machine.
  void PollDrains();
  void ReactiveDecision();
  void ScaleUp(std::size_t step);
  void ScaleDown(std::size_t step);

  /// Provision + warm-up timer for one machine.
  void BeginLease(cluster::MachineId id);
  /// Drain + grace-deadline timer (graceful retire, forced fallback).
  void BeginDrain(cluster::MachineId id,
                  sched::SchedulerBase::DrainReason reason, double grace);
  /// RetireMachine + wasted-warm-up accounting. Returns false if a graceful
  /// retire was refused (machine still holds work). With power management
  /// attached, a non-reclaimed drain parks into deep sleep instead of
  /// retiring (park-vs-retire: the machine stays ours and wakeable);
  /// reclaimed leases always truly retire — the provider takes them back.
  bool TryRetire(cluster::MachineId id, bool force);
  /// Lease-close bookkeeping shared by retire and park.
  void CloseLease(cluster::MachineId id);

  /// Best scale-up candidate among parked/retired reserve machines; applies
  /// CRV-aware supply shaping under Phoenix. kInvalidMachine if none.
  cluster::MachineId PickProvisionCandidate();

  sim::Engine& engine_;
  sched::SchedulerBase& scheduler_;
  cluster::MembershipView& view_;
  ElasticConfig config_;
  /// Non-null when the scheduler is Phoenix (enables CRV shaping).
  const core::PhoenixScheduler* phoenix_ = nullptr;
  /// Private stream: reclamation draws must not perturb scheduler sampling.
  util::Rng rng_;

  double last_tick_ = 0;
  double last_decision_ = 0;
  /// Draining machines -> forced-retire deadline plus whether the drain was
  /// a reclamation (ordered by id, so polls are deterministic).
  struct DrainRecord {
    double deadline = 0;
    bool reclaimed = false;
  };
  std::map<cluster::MachineId, DrainRecord> drain_deadline_;
  /// tasks_started at commission time, per open lease (wasted-warm-up).
  std::map<cluster::MachineId, std::uint64_t> tasks_at_commission_;
};

}  // namespace phoenix::elastic
