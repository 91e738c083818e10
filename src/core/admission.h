// Proactive admission control (paper contribution #2).
//
// When the CRV table shows a dimension congested beyond the threshold,
// Phoenix negotiates the *soft* constraints of newly arriving short jobs
// that touch the hot dimensions: the constraint is relaxed (dropped) in
// exchange for a modeled per-constraint service-time penalty, widening the
// candidate pool and keeping the job off the congested queues. Hard
// constraints are never relaxed here.
#pragma once

#include "cluster/cluster.h"
#include "core/crv.h"
#include "sched/types.h"

namespace phoenix::core {

class AdmissionController {
 public:
  /// Relaxes at most SchedulerConfig::phoenix_max_relaxations constraints
  /// per job, each at SchedulerConfig::soft_relax_penalty.
  AdmissionController(const cluster::Cluster& cluster, double crv_threshold);

  /// Negotiates against the eligible (active) pools of `view` instead of the
  /// full universe. Relaxation only ever widens a pool, so this is safe
  /// under churn; it makes the pool-scarcity gate see the fleet the job
  /// will actually be placed on.
  void AttachMembership(const cluster::MembershipView* view) { view_ = view; }

  /// Negotiates `job`'s soft constraints against the current CRV snapshot.
  /// Returns the number of constraints relaxed; updates job.effective and
  /// job.duration_multiplier.
  std::size_t Negotiate(sched::JobRuntime& job, const CrvSnapshot& snapshot);

 private:
  std::size_t Pool(const cluster::ConstraintSet& cs) const;
  std::size_t FleetSize() const;

  const cluster::Cluster& cluster_;
  const cluster::MembershipView* view_ = nullptr;
  double crv_threshold_;
};

}  // namespace phoenix::core
