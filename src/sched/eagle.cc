#include "sched/eagle.h"

namespace phoenix::sched {

std::vector<cluster::MachineId> EagleScheduler::ChooseProbeTargets(
    const JobRuntime& job) {
  const std::size_t wanted = config().probe_ratio * job.num_tasks();
  const util::IndexedBitset& pool = EligiblePool(job.effective);
  std::vector<cluster::MachineId> targets;
  targets.reserve(wanted);
  // Rejection-sample against the SSS bit vector: skip long-occupied workers
  // while the budget lasts, then accept anything satisfying so constrained
  // jobs still get their probes out. The SSS bits are read synchronously
  // (an oracle): only the probes *built from* them pay fabric transit, so
  // under a lossy fabric placement acts on slightly stale occupancy — the
  // same staleness real gossip-propagated SSS exhibits.
  const std::size_t budget = 4 * wanted;
  std::size_t draws = 0;
  while (targets.size() < wanted && draws < budget) {
    ++draws;
    const std::size_t bit = pool.Sample(rng());
    if (bit == SIZE_MAX) break;
    const auto id = static_cast<cluster::MachineId>(bit);
    if (!LongBusy(id)) targets.push_back(id);
  }
  while (targets.size() < wanted) {
    const std::size_t bit = pool.Sample(rng());
    if (bit == SIZE_MAX) break;
    targets.push_back(static_cast<cluster::MachineId>(bit));
  }
  return targets;
}

std::size_t EagleScheduler::SelectNextIndex(const WorkerState& worker) {
  const std::size_t index = IndexRespectingSlack(worker, SrptIndex(worker));
  if (index != 0) ++counters().tasks_reordered_srpt;
  return index;
}

bool EagleScheduler::UseStickyBatchProbing(const JobRuntime&) const {
  return true;
}

}  // namespace phoenix::sched
