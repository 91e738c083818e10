#include "core/admission.h"

#include <algorithm>

#include "util/check.h"

namespace phoenix::core {

static_assert(sched::SchedulerConfig::soft_relax_penalty >= 1.0,
              "a relaxed constraint must not speed a task up");

AdmissionController::AdmissionController(const cluster::Cluster& cluster,
                                         double crv_threshold)
    : cluster_(cluster), crv_threshold_(crv_threshold) {
  PHOENIX_CHECK(crv_threshold > 0);
}

std::size_t AdmissionController::Pool(const cluster::ConstraintSet& cs) const {
  return view_ != nullptr ? view_->CountEligible(cs)
                          : cluster_.CountSatisfying(cs);
}

std::size_t AdmissionController::FleetSize() const {
  return view_ != nullptr ? view_->bindable_count() : cluster_.size();
}

std::size_t AdmissionController::Negotiate(sched::JobRuntime& job,
                                           const CrvSnapshot& snapshot) {
  // Only short (latency-critical) jobs benefit: long jobs amortize queueing
  // and should keep their requested placement quality.
  if (!job.short_class) return 0;

  std::size_t relaxed = 0;
  bool changed = true;
  while (changed &&
         relaxed < sched::SchedulerConfig::phoenix_max_relaxations) {
    changed = false;
    const std::size_t pool = Pool(job.effective);
    // Negotiation only pays when the job is actually cornered: a roomy pool
    // queues briefly even at peak, and the relaxation penalty would be pure
    // loss.
    if (pool >= FleetSize() / 10) break;
    for (std::size_t i = 0; i < job.effective.size(); ++i) {
      const cluster::Constraint& c = job.effective[i];
      if (c.hard) continue;
      const double ratio = snapshot.RatioFor(cluster::AttrToCrvDim(c.attr));
      if (ratio <= crv_threshold_) continue;
      // Require the trade to buy real placement freedom (>= 2x the pool).
      const cluster::ConstraintSet without = job.effective.WithoutConstraint(i);
      if (Pool(without) < 2 * std::max<std::size_t>(pool, 1)) {
        continue;
      }
      job.effective = without;
      job.duration_multiplier *= sched::SchedulerConfig::soft_relax_penalty;
      ++job.relaxed_constraints;
      ++relaxed;
      changed = true;
      break;  // indices shifted; rescan
    }
  }
  return relaxed;
}

}  // namespace phoenix::core
