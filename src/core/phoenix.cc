#include "core/phoenix.h"

#include <algorithm>

#include "power/manager.h"

namespace phoenix::core {

using cluster::MachineId;
using sched::JobRuntime;
using sched::QueueEntry;
using sched::WorkerState;

PhoenixScheduler::PhoenixScheduler(sim::Engine& engine,
                                   const cluster::Cluster& cluster,
                                   const sched::SchedulerConfig& config)
    : EagleScheduler(engine, cluster, config),
      monitor_(cluster),
      admission_(cluster, config.crv_threshold) {}

void PhoenixScheduler::SetMembership(cluster::MembershipView* membership) {
  EagleScheduler::SetMembership(membership);
  monitor_.AttachMembership(membership);
  admission_.AttachMembership(membership);
}

void PhoenixScheduler::SetPower(power::PowerManager* power) {
  EagleScheduler::SetPower(power);
  monitor_.SetParkedSupplyWeight(power->config().policy.parked_supply_weight);
}

void PhoenixScheduler::AdmitJob(JobRuntime& job) {
  // Forced relaxation first (unsatisfiable sets must still run somewhere)…
  EagleScheduler::AdmitJob(job);
  // …then proactive negotiation against the congested dimensions, as the
  // job's home shard believes them under federation.
  if (config().phoenix_admission) {
    const std::size_t relaxed = admission_.Negotiate(job, JobSnapshot(job));
    counters().soft_constraints_relaxed += relaxed;
    if (relaxed > 0) {
      Emit(obs::EventType::kAdmissionRelax, job.id, obs::kNoId, obs::kNoId,
           static_cast<double>(relaxed));
    }
  }
}

void PhoenixScheduler::ApplyWaitReport(MachineId id, double estimate) {
  PublishWait(id, estimate,
              CongestedFor(id) && estimate > config().qwait_threshold);
}

void PhoenixScheduler::RefreshShardCrv(std::uint32_t shard) {
  if (shard_snapshots_.empty()) {
    shard_snapshots_.resize(federation()->num_shards());
    shard_congested_.assign(federation()->num_shards(), 0);
  }
  std::array<std::uint64_t, cluster::kNumCrvDims> demand{};
  const auto load = federation()->GlobalCrvLoad(shard, &demand);
  CrvSnapshot snap;
  for (std::size_t d = 0; d < cluster::kNumCrvDims; ++d) {
    snap.ratio[d] = load[d];
    snap.demand[d] = demand[d];
    if (snap.ratio[d] > snap.max_ratio) {
      snap.max_ratio = snap.ratio[d];
      snap.max_dim = static_cast<cluster::CrvDim>(d);
    }
  }
  shard_snapshots_[shard] = snap;
  shard_congested_[shard] =
      snap.CongestedAbove(config().crv_threshold) ? 1 : 0;
}

const CrvSnapshot& PhoenixScheduler::SnapshotFor(MachineId wid) const {
  if (federation() == nullptr || shard_snapshots_.empty()) return snapshot_;
  return shard_snapshots_[federation()->shard_of(wid)];
}

bool PhoenixScheduler::CongestedFor(MachineId wid) const {
  if (federation() == nullptr || shard_congested_.empty()) return congested_;
  return shard_congested_[federation()->shard_of(wid)] != 0;
}

const CrvSnapshot& PhoenixScheduler::JobSnapshot(const JobRuntime& job) const {
  if (federation() == nullptr || shard_snapshots_.empty()) return snapshot_;
  return shard_snapshots_[federation()->HomeShard(job.id)];
}

bool PhoenixScheduler::JobCongested(const JobRuntime& job) const {
  if (federation() == nullptr || shard_congested_.empty()) return congested_;
  return shard_congested_[federation()->HomeShard(job.id)] != 0;
}

void PhoenixScheduler::FederatedQueuedDelta(MachineId wid,
                                            const cluster::ConstraintSet& cs,
                                            double sign) {
  const std::uint32_t shard = federation()->shard_of(wid);
  for (const auto& c : cs) {
    federation()->OnQueuedDelta(
        shard, static_cast<std::size_t>(cluster::AttrToCrvDim(c.attr)),
        monitor_.RatioContribution(c), sign);
  }
}

void PhoenixScheduler::OnHeartbeat(MachineId lo, MachineId hi) {
  EagleScheduler::OnHeartbeat(lo, hi);  // idle-worker steal retry
  if (federation() == nullptr) {
    if (packing_on()) {
      // Weight CRV supply by residual packed capacity: a pool of P machines
      // advertises P x free-copy-density task slots this heartbeat.
      monitor_.SetSupplyScale(PackedSupplyScale());
    }
    snapshot_ = monitor_.TakeSnapshot();
    congested_ = snapshot_.CongestedAbove(config().crv_threshold);
  } else {
    // The tick's shard reconstructs its belief of the global CRV table
    // from its live territory counters plus fresh gossiped peer digests.
    RefreshShardCrv(federation()->shard_of(lo));
  }
  const bool ideal_net = fabric().FastPath();
  bool any_marked = false;
  if (ideal_net && federation() == nullptr) {
    // Every report would land at the tick, and a machine off the moved list
    // would report what it published last: its estimator's inputs have not
    // moved since. So only the moved machines republish, and a congestion
    // flip re-derives every mark from the published estimates.
    for (const MachineId id : moved_estimators()) {
      ApplyWaitReport(id, worker(id).estimator.EstimateWait());
    }
    ClearMovedEstimators();
    if (congested_ != marks_congested_) {
      for (MachineId i = lo; i < hi; ++i) {
        SetCrvMark(i, congested_ &&
                          published_wait(i) > config().qwait_threshold);
      }
      marks_congested_ = congested_;
    }
    any_marked = crv_mark_count() > 0;
  } else {
    for (MachineId i = lo; i < hi; ++i) {
      const double estimate = worker(i).estimator.EstimateWait();
      if (ideal_net) {
        ApplyWaitReport(i, estimate);
      } else {
        // Worker-side E[W] reports transit the fabric to the CRV monitor as
        // unreliable datagrams (the next tick supersedes them, so no
        // retry): a dropped or delayed report leaves the previous, stale
        // estimate steering probe placement until the next heartbeat
        // lands. A landed report may differ from the estimator by then, so
        // it marks the machine moved for the next ideal-fabric tick.
        fabric().Send(i, net::kControllerNode,
                      net::MessageKind::kHeartbeatReport, one_way(),
                      [this, i, estimate] {
                        ApplyWaitReport(i, estimate);
                        MarkEstimatorMoved(i);
                        return true;
                      });
      }
      any_marked = any_marked || crv_marked(i);
    }
  }
  // The tick's own table: the global snapshot unsharded, the refreshed
  // shard belief under federation.
  const CrvSnapshot& snap = SnapshotFor(lo);
  const bool cong = CongestedFor(lo);
  if (cong && any_marked) ++counters().crv_reorder_rounds;
  if (tracing()) {
    // Export the refreshed CRV_Lookup_Table row by row (dimension in the
    // task field, ratio in the value) — the timeseries sink reassembles
    // these into the per-heartbeat CRV history table.
    for (std::size_t d = 0; d < cluster::kNumCrvDims; ++d) {
      Emit(obs::EventType::kCrvSnapshot, obs::kNoId, obs::kNoId,
           static_cast<std::uint32_t>(d), snap.ratio[d]);
    }
  }

  // Record the refresh; decimate by dropping every other sample once the
  // cap is hit, so arbitrarily long runs keep a bounded, uniform history.
  history_.push_back({engine().Now(), snap, cong});
  if (history_.size() >= kMaxHistory) {
    std::vector<CrvSample> halved;
    halved.reserve(history_.size() / 2 + 1);
    for (std::size_t i = 0; i < history_.size(); i += 2) {
      halved.push_back(history_[i]);
    }
    history_ = std::move(halved);
  }
}

bool PhoenixScheduler::TouchesHotDim(const JobRuntime& job,
                                     const CrvSnapshot& snap) const {
  for (const auto& c : job.effective) {
    if (cluster::AttrToCrvDim(c.attr) == snap.max_dim) return true;
  }
  return false;
}

std::size_t PhoenixScheduler::SelectNextIndex(const WorkerState& worker) {
  if (!config().phoenix_crv_reorder ||
      !(CongestedFor(worker.id) && crv_marked(worker.id))) {
    return EagleScheduler::SelectNextIndex(worker);  // SRPT + slack
  }
  // CRV-based reordering: among *short* entries demanding the hottest
  // dimension, run the shortest first; entries on cooler dimensions (or
  // none) wait. Long bound tasks are never promoted — the reordering
  // exists to pull latency-critical constrained work forward.
  const CrvSnapshot& snap = SnapshotFor(worker.id);
  std::size_t best = SIZE_MAX;
  for (std::size_t i = 0; i < worker.queue.size(); ++i) {
    if (!worker.queue[i].short_class) continue;
    if (!TouchesHotDim(runtime(worker.queue[i].job), snap)) continue;
    if (best == SIZE_MAX ||
        worker.queue[i].est_duration < worker.queue[best].est_duration) {
      best = i;
    }
  }
  if (best == SIZE_MAX) {
    return EagleScheduler::SelectNextIndex(worker);
  }
  const std::size_t index = IndexRespectingSlack(worker, best);
  if (index != 0) {
    ++counters().tasks_reordered_crv;
    Emit(obs::EventType::kCrvReorder, worker.queue[index].job, worker.id,
         static_cast<std::uint32_t>(index),
         worker.queue[index].est_duration);
  }
  return index;
}

std::vector<MachineId> PhoenixScheduler::ChooseProbeTargets(
    const JobRuntime& job) {
  if (!config().phoenix_wait_aware_probes) {
    return EagleScheduler::ChooseProbeTargets(job);
  }
  const std::size_t wanted = config().probe_ratio * job.num_tasks();
  // Over-sample through Eagle's SSS-aware path, then keep the targets with
  // the lowest heartbeat E[W] estimates. Sampling is with replacement, so
  // the doubled draw carries duplicates — dedupe before ranking (probing
  // the same queue twice buys nothing), and rank with a partial sort: only
  // the best `wanted` need ordering, not the whole candidate list. The
  // MachineId tie-break keeps the selection deterministic (partial_sort is
  // unstable, and E[W] estimates tie often right after a heartbeat).
  std::vector<MachineId> candidates = EagleScheduler::ChooseProbeTargets(job);
  {
    std::vector<MachineId> more = EagleScheduler::ChooseProbeTargets(job);
    candidates.insert(candidates.end(), more.begin(), more.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (candidates.size() <= wanted) return candidates;
  std::partial_sort(candidates.begin(),
                    candidates.begin() + static_cast<std::ptrdiff_t>(wanted),
                    candidates.end(), [this](MachineId a, MachineId b) {
                      const double wa = published_wait(a);
                      const double wb = published_wait(b);
                      if (wa != wb) return wa < wb;
                      return a < b;
                    });
  candidates.resize(wanted);
  return candidates;
}

bool PhoenixScheduler::UseStickyBatchProbing(const JobRuntime& job) const {
  // Stickiness is suspended during congested periods: it commits work to a
  // queue whose wait the CRV table says is mispriced (§VI-A).
  if (config().phoenix_suspend_sbp && JobCongested(job)) return false;
  return EagleScheduler::UseStickyBatchProbing(job);
}

void PhoenixScheduler::OnEntryEnqueued(const WorkerState& worker,
                                       const QueueEntry& entry) {
  EagleScheduler::OnEntryEnqueued(worker, entry);
  const cluster::ConstraintSet& cs = runtime(entry.job).effective;
  monitor_.OnEnqueue(cs);
  if (federation() != nullptr) FederatedQueuedDelta(worker.id, cs, +1);
}

void PhoenixScheduler::OnEntryDequeued(const WorkerState& worker,
                                       const QueueEntry& entry) {
  EagleScheduler::OnEntryDequeued(worker, entry);
  const cluster::ConstraintSet& cs = runtime(entry.job).effective;
  monitor_.OnDequeue(cs);
  if (federation() != nullptr) FederatedQueuedDelta(worker.id, cs, -1);
}

}  // namespace phoenix::core
