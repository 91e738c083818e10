#include "sched/yaccd.h"

namespace phoenix::sched {

std::size_t YaccDScheduler::SelectNextIndex(const WorkerState& worker) {
  const std::size_t index = IndexRespectingSlack(worker, SrptIndex(worker));
  if (index != 0) ++counters().tasks_reordered_srpt;
  return index;
}

void YaccDScheduler::OnHeartbeat(cluster::MachineId lo,
                                 cluster::MachineId hi) {
  // Mean queued work across the tick's territory (the fleet unsharded).
  double total = 0;
  for (cluster::MachineId i = lo; i < hi; ++i) {
    total += worker(i).est_queued_work;
  }
  const double mean = total / static_cast<double>(hi - lo);
  if (mean <= 0) return;

  for (cluster::MachineId i = lo; i < hi; ++i) {
    WorkerState& w = worker(i);
    if (w.est_queued_work <= kShedFactor * mean) continue;
    // Shed from the queue tail (the work that would wait longest) until the
    // worker is back near the mean.
    while (!w.queue.empty() && w.est_queued_work > kShedTarget * mean) {
      const std::size_t tail = w.queue.size() - 1;
      const JobRuntime& job = runtime(w.queue[tail].job);
      // Find a less-loaded satisfying worker; skip the move if none is
      // meaningfully better.
      const auto candidates =
          SampleDistinctEligible(job.effective, config().power_of_d);
      cluster::MachineId best = cluster::kInvalidMachine;
      double best_load = w.est_queued_work;
      for (const auto c : candidates) {
        if (c == w.id) continue;
        const double load = worker(c).est_queued_work;
        if (load < best_load) {
          best_load = load;
          best = c;
        }
      }
      if (best == cluster::kInvalidMachine ||
          best_load > 0.5 * w.est_queued_work) {
        break;
      }
      QueueEntry moved = RemoveQueueAt(w, tail);
      ++counters().tasks_stolen;  // migrations share the rebalance counter
      // Migration pays a negotiate + transfer round trip over the fabric.
      SendEntry(best, moved, 2 * one_way(), w.id);
    }
  }
}

}  // namespace phoenix::sched
