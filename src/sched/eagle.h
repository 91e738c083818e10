// Eagle-C: job-aware hybrid scheduling (Delgado et al., SoCC'16) extended
// with constraint-aware sampling — the paper's primary baseline and the
// scheduler Phoenix is built on.
//
// Adds to Hawk (Table I):
//   * Succinct State Sharing: distributed schedulers learn (via bit
//     vectors) which workers hold long work and avoid probing them, so
//     short tasks dodge head-of-line blocking behind long tasks;
//   * SRPT queue reordering with a starvation (slack) bound;
//   * Sticky Batch Probing: a worker that finishes a task of a job with
//     unplaced tasks fetches the next task of the same job directly.
#pragma once

#include "sched/hawk.h"

namespace phoenix::sched {

class EagleScheduler : public HawkScheduler {
 public:
  using HawkScheduler::HawkScheduler;

  std::string name() const override { return "eagle-c"; }

 protected:
  /// SSS: prefer probe targets without queued or running long work.
  std::vector<cluster::MachineId> ChooseProbeTargets(
      const JobRuntime& job) override;

  /// SRPT with the slack bound.
  std::size_t SelectNextIndex(const WorkerState& worker) override;

  bool UseStickyBatchProbing(const JobRuntime& job) const override;

  // The SSS bit itself is SchedulerBase::LongBusy(id) — a dense flag the
  // base maintains so the rejection loop below stays cache-resident.
};

}  // namespace phoenix::sched
