#include "sched/hawk.h"

#include <cmath>

namespace phoenix::sched {

HawkScheduler::HawkScheduler(sim::Engine& engine,
                             const cluster::Cluster& cluster,
                             const SchedulerConfig& config)
    : SchedulerBase(engine, cluster, config) {
  short_partition_end_ = static_cast<cluster::MachineId>(
      std::llround(config.hawk_short_partition *
                   static_cast<double>(cluster.size())));
}

std::vector<cluster::MachineId> HawkScheduler::ChooseLongCandidates(
    const JobRuntime& job) {
  // Sample generously, drop candidates inside the short-only partition, and
  // fall back to the unfiltered pool if the whole sample was reserved (a
  // heavily constrained job whose pool lies inside the partition must still
  // run somewhere).
  std::vector<cluster::MachineId> sample =
      SampleDistinctEligible(job.effective, 2 * config().power_of_d);
  std::vector<cluster::MachineId> filtered;
  filtered.reserve(sample.size());
  for (const auto id : sample) {
    if (id >= short_partition_end_) filtered.push_back(id);
  }
  if (filtered.empty()) return sample;
  if (filtered.size() > config().power_of_d) {
    filtered.resize(config().power_of_d);
  }
  return filtered;
}

void HawkScheduler::OnWorkerIdle(WorkerState& worker) {
  // The stolen entry transits the fabric victim→thief (see TryStealFor), so
  // under chaos a steal can be delayed, duplicated, or lost; a lost
  // transfer times out at the Rpc layer and bounces back to redispatch.
  TryStealFor(worker.id);
}

void HawkScheduler::OnHeartbeat(cluster::MachineId lo,
                                cluster::MachineId hi) {
  // A worker whose steal gate is closed would make no draw.
  for (cluster::MachineId i = lo; i < hi; ++i) {
    if (StealGate(i)) TryStealFor(i);
  }
}

}  // namespace phoenix::sched
