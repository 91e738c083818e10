#include "sched/base.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/capacity.h"
#include "metrics/fairness.h"
#include "obs/audit.h"
#include "packing/demand.h"
#include "packing/policy.h"
#include "power/manager.h"
#include "queueing/distributions.h"
#include "tenancy/admission.h"

#include "util/check.h"

namespace phoenix::sched {

using cluster::MachineId;
using obs::EventType;
using trace::JobId;

SchedulerBase::SchedulerBase(sim::Engine& engine,
                             const cluster::Cluster& cluster,
                             const SchedulerConfig& config)
    : engine_(engine), cluster_(cluster), config_(config),
      rng_(config.seed ^ 0x5851f42d4c957f2dULL),
      fabric_(engine, config.net, config.seed),
      rpc_(engine, fabric_, config.rpc) {
  // Message-lifecycle events flow through the same sinks as scheduler
  // events (the fabric never emits on its zero-chaos fast path).
  fabric_.set_emitter([this](const obs::Event& event) {
    for (obs::EventSink* sink : sinks_) sink->OnEvent(event);
  });
  workers_.reserve(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    workers_.emplace_back(config_.estimator_window, &arena_);
    workers_.back().id = static_cast<MachineId>(i);
  }
  short_probe_counts_.assign(cluster.size(), 0);
  live_.Resize(cluster.size());
  occupied_.assign(cluster.size(), 0);
  steal_gate_.assign(cluster.size(), 0);
  long_busy_.assign(cluster.size(), 0);
  if (config_.packing.enabled) {
    packing_on_ = true;
    max_capacity_ = cluster::MaxCapacity(cluster);
    fleet_capacity_ = cluster::TotalCapacity(cluster);
    mean_demand_ = packing::MeanDemand(config_.packing);
    // Clamp target for demands no machine can host: the machine with the
    // largest normalized capacity volume (ties: lowest id), so a clamped
    // demand is guaranteed a feasible host.
    double best_volume = -1.0;
    mean_copies_.resize(cluster.size());
    residual_spread_.resize(cluster.size());
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      WorkerState& w = workers_[i];
      w.capacity = cluster::CapacityOf(cluster.machine(i));
      w.residual = w.capacity;
      NoteResidual(w);
      double volume = 0;
      for (std::size_t d = 0; d < packing::kNumPackDims; ++d) {
        if (max_capacity_.dim(d) > 0) {
          volume += w.capacity.dim(d) / max_capacity_.dim(d);
        }
      }
      if (volume > best_volume) {
        best_volume = volume;
        clamp_capacity_ = w.capacity;
      }
    }
  }
  if (config_.tenancy.enabled()) {
    tenancy_on_ = true;
    tenants_ = tenancy::TenantRegistry(config_.tenancy.tenants);
    preempt_policy_ = tenancy::PreemptionPolicy(
        config_.tenancy.preemption, config_.tenancy.max_preemptions_per_task);
  }
  dag_on_ = config_.workflow.dag;
  deadline_on_ = config_.workflow.deadline;
  for (const WorkerState& w : workers_) RefreshHints(w);
}

void SchedulerBase::EnableFederation(const federation::FederationConfig& cfg) {
  PHOENIX_CHECK_MSG(jobs_.empty(), "enable federation before SubmitTrace");
  if (!cfg.enabled()) return;  // --shards=1: stay on the unsharded paths
  PHOENIX_CHECK_MSG(!packing_on_,
                    "packing and federation are mutually exclusive (gossiped "
                    "free-slot digests do not carry capacity vectors)");
  federation_ = std::make_unique<federation::FederationPlane>(
      engine_, fabric_, cfg, workers_.size());
  federation_->set_emitter([this](const obs::Event& event) {
    for (obs::EventSink* sink : sinks_) sink->OnEvent(event);
  });
}

void SchedulerBase::SetMembership(cluster::MembershipView* membership) {
  PHOENIX_CHECK_MSG(jobs_.empty(), "attach membership before SubmitTrace");
  PHOENIX_CHECK(membership != nullptr);
  PHOENIX_CHECK_MSG(&membership->cluster() == &cluster_,
                    "membership view must be over this scheduler's cluster");
  membership_ = membership;
  last_membership_change_ = engine_.Now();
  // The view may start machines parked: every bindable-derived hint moves.
  for (const WorkerState& w : workers_) RefreshHints(w);
}

void SchedulerBase::SetPower(power::PowerManager* power) {
  PHOENIX_CHECK_MSG(jobs_.empty(), "attach the power manager before SubmitTrace");
  PHOENIX_CHECK(power != nullptr);
  PHOENIX_CHECK_MSG(membership_ != nullptr,
                    "power management needs a membership view (parked is a "
                    "lifecycle state)");
  power_ = power;
}

void SchedulerBase::AccrueInService() {
  in_service_seconds_ +=
      static_cast<double>(membership_->in_service_count()) *
      (engine_.Now() - last_membership_change_);
  last_membership_change_ = engine_.Now();
}

void SchedulerBase::ProvisionMachine(MachineId id, double warmup_delay) {
  PHOENIX_CHECK_MSG(membership_ != nullptr,
                    "lifecycle actuators need a membership view");
  PHOENIX_CHECK(id < workers_.size());
  if (power_ != nullptr && power_->asleep(id)) {
    // The machine sleeps in S3: every provision of it — elastic lease or
    // power wake — pays the wake transition here, so both planes share one
    // wake path and one set of counters. kPowerWake precedes the lifecycle
    // event: the auditor checks its legality against the still-parked state.
    ++counters_.power_wakes;
    Emit(EventType::kPowerWake, obs::kNoId, id, obs::kNoId, warmup_delay);
    const double watts = power_->Wake(id, engine_.Now());
    Emit(EventType::kPowerState, obs::kNoId, id, obs::kNoId, watts);
  }
  // Parked or retired -> provisioning: the machine stays unbindable, so no
  // hint moves.
  membership_->SetState(id, cluster::MachineLifecycle::kProvisioning);
  ++counters_.elastic_provisions;
  counters_.elastic_warmup_seconds += warmup_delay;
  Emit(EventType::kMachineProvision, obs::kNoId, id, obs::kNoId, warmup_delay);
}

void SchedulerBase::CommissionMachine(MachineId id) {
  PHOENIX_CHECK_MSG(membership_ != nullptr,
                    "lifecycle actuators need a membership view");
  PHOENIX_CHECK(id < workers_.size());
  WorkerState& w = workers_[id];
  AccrueInService();
  membership_->SetState(id, cluster::MachineLifecycle::kActive);
  ++counters_.elastic_commissions;
  Emit(EventType::kMachineCommission, obs::kNoId, id);
  // A fresh lease starts with clean load signals: whatever a previous lease
  // taught the estimator (or a stale congestion mark) no longer describes
  // this machine.
  ResetLoadSignals(w);
  RefreshHints(w);
  TryStartNext(w);
}

void SchedulerBase::DrainMachine(MachineId id, DrainReason reason) {
  PHOENIX_CHECK_MSG(membership_ != nullptr,
                    "lifecycle actuators need a membership view");
  PHOENIX_CHECK(id < workers_.size());
  WorkerState& w = workers_[id];
  membership_->SetState(id, cluster::MachineLifecycle::kDraining);
  if (reason == DrainReason::kReclamation) {
    ++counters_.elastic_reclamations;
    Emit(EventType::kMachineReclaim, obs::kNoId, id);
  }
  ++counters_.elastic_drains;
  Emit(EventType::kMachineDrain, obs::kNoId, id);
  // Free a fetch-held control slot — its round trip would bind a new task
  // here. Runs keep going and finish within the grace period. EvictWork
  // refreshes the hints, the lifecycle move included.
  EvictWork(w, /*kill_runs=*/false);
  // Bounce queued probes elsewhere (resolving one would also bind new
  // work); already-bound tasks stay and may still run before the retire.
  for (std::size_t i = w.queue.size(); i-- > 0;) {
    if (w.queue[i].kind == QueueEntry::Kind::kProbe) {
      BounceUndelivered(RemoveQueueAt(w, i), id, one_way());
    }
  }
  TryStartNext(w);
}

bool SchedulerBase::RetireMachine(MachineId id, bool force) {
  PHOENIX_CHECK_MSG(membership_ != nullptr,
                    "lifecycle actuators need a membership view");
  PHOENIX_CHECK(id < workers_.size());
  WorkerState& w = workers_[id];
  PHOENIX_CHECK_MSG(
      membership_->state(id) == cluster::MachineLifecycle::kDraining,
      "retire requires a draining machine");
  if (!force && (w.HoldsWork() ||
                 (packing_on_ && !w.capacity.FitsIn(w.residual)))) {
    return false;
  }
  if (force) {
    counters_.elastic_tasks_redispatched += w.queue.size() + w.runs.size();
    EvictWork(w, /*kill_runs=*/true);
    while (!w.queue.empty()) {
      BounceUndelivered(RemoveQueueAt(w, w.queue.size() - 1), id, one_way());
    }
  }
  AccrueInService();
  // Draining -> retired: the machine stays unbindable, so no hint moves
  // (a forced retire's evictions refreshed them above).
  membership_->SetState(id, cluster::MachineLifecycle::kRetired);
  if (force) {
    ++counters_.elastic_retires_forced;
  } else {
    ++counters_.elastic_retires_graceful;
  }
  Emit(EventType::kMachineRetire, obs::kNoId, id, obs::kNoId, force ? 1 : 0);
  ResetLoadSignals(w);
  return true;
}

bool SchedulerBase::ParkMachine(MachineId id) {
  PHOENIX_CHECK_MSG(membership_ != nullptr && power_ != nullptr,
                    "parking needs a membership view and a power manager");
  PHOENIX_CHECK(id < workers_.size());
  WorkerState& w = workers_[id];
  const cluster::MachineLifecycle state = membership_->state(id);
  if (state != cluster::MachineLifecycle::kActive &&
      state != cluster::MachineLifecycle::kDraining) {
    return false;  // double-park / park-of-retired: idempotent no-op
  }
  // Never strand work: held work (a fetch, the queue, or runs) vetoes the
  // park (the controller re-evaluates next tick once the worker truly
  // drains). An outstanding gang reservation — residual below capacity with
  // nothing running — vetoes too: parking would strand the claimed share.
  if (w.HoldsWork() || w.failed) return false;
  if (packing_on_ && !w.capacity.FitsIn(w.residual)) return false;
  AccrueInService();
  // kPowerPark first (legal while active/draining), then the lifecycle
  // transition, then the metered wattage drop into S3.
  Emit(EventType::kPowerPark, obs::kNoId, id);
  membership_->SetState(id, cluster::MachineLifecycle::kParked);
  Emit(EventType::kMachinePark, obs::kNoId, id);
  const double watts = power_->Park(id, engine_.Now());
  PHOENIX_CHECK(watts >= 0);
  Emit(EventType::kPowerState, obs::kNoId, id, obs::kNoId, watts);
  ++counters_.power_parks;
  // A parked machine still advertises wake-penalized supply: the cleared
  // estimator reads exactly the wake penalty, so probe targeting and the
  // elastic controller see "available, but at wake cost".
  ResetLoadSignals(w);
  RefreshHints(w);
  w.estimator.SetWakePenalty(power_->WakePenalty(id));
  return true;
}

bool SchedulerBase::SetMachinePState(MachineId id, unsigned p) {
  PHOENIX_CHECK_MSG(power_ != nullptr, "DVFS needs a power manager");
  PHOENIX_CHECK(id < workers_.size());
  // A running task's duration was priced at the old speed; retune only
  // between executions (the controller retries next tick).
  if (power_->asleep(id) || power_->executing(id)) return false;
  const unsigned prev = power_->p_state(id);
  const double watts = power_->SetPState(id, p, engine_.Now());
  if (watts < 0) return false;  // already at p
  if (p > prev) {
    ++counters_.power_dvfs_lowers;
  } else {
    ++counters_.power_dvfs_raises;
  }
  Emit(EventType::kPowerDvfs, obs::kNoId, id, p, watts);
  Emit(EventType::kPowerState, obs::kNoId, id, obs::kNoId, watts);
  return true;
}

void SchedulerBase::WakeParkedMachine(cluster::MachineId id) {
  PHOENIX_CHECK(power_ != nullptr && membership_ != nullptr);
  PHOENIX_CHECK_MSG(
      membership_->state(id) == cluster::MachineLifecycle::kParked,
      "only a parked machine can be woken");
  const double latency = power_->WakeLatency(id);
  ProvisionMachine(id, latency);
  engine_.ScheduleAfter(latency, [this, id] {
    // Commission unless something else moved the machine meanwhile.
    if (membership_->state(id) == cluster::MachineLifecycle::kProvisioning) {
      CommissionMachine(id);
    }
  });
}

MachineId SchedulerBase::WakeSatisfierFallback(
    const cluster::ConstraintSet& cs) {
  if (power_ == nullptr || membership_ == nullptr) {
    return cluster::kInvalidMachine;
  }
  const util::IndexedBitset& sat = cluster_.Satisfying(cs);
  MachineId parked_pick = cluster::kInvalidMachine;
  for (std::size_t id = 0; id < workers_.size(); ++id) {
    if (!sat.Test(id) || workers_[id].failed) continue;
    const cluster::MachineLifecycle st =
        membership_->state(static_cast<MachineId>(id));
    if (st == cluster::MachineLifecycle::kProvisioning) {
      return static_cast<MachineId>(id);  // already on its way up
    }
    if (st == cluster::MachineLifecycle::kParked &&
        parked_pick == cluster::kInvalidMachine) {
      parked_pick = static_cast<MachineId>(id);
    }
  }
  if (parked_pick != cluster::kInvalidMachine) {
    ++counters_.power_demand_wakes;
    WakeParkedMachine(parked_pick);
  }
  return parked_pick;
}

void SchedulerBase::AttachSink(obs::EventSink* sink) {
  PHOENIX_CHECK_MSG(jobs_.empty(), "attach sinks before SubmitTrace");
  PHOENIX_CHECK(sink != nullptr);
  sinks_.push_back(sink);
}

void SchedulerBase::AttachAuditor(obs::InvariantAuditor* auditor) {
  AttachSink(auditor);
  auditor_ = auditor;
}

void SchedulerBase::EmitToSinks(EventType type, std::uint32_t job,
                                std::uint32_t machine, std::uint32_t task,
                                double value) {
  obs::Event event;
  event.time = engine_.Now();
  event.type = type;
  event.job = job;
  event.machine = machine;
  event.task = task;
  event.value = value;
  for (obs::EventSink* sink : sinks_) sink->OnEvent(event);
}

void SchedulerBase::AuditWorkers(bool final_state, MachineId lo,
                                 MachineId hi) {
  if (auditor_ == nullptr) return;
  const double now = engine_.Now();
  for (MachineId i = lo; i < hi; ++i) {
    const WorkerState& w = workers_[i];
    const bool out_of_service =
        membership_ != nullptr && !membership_->InService(w.id);
    // A fetch holding the control slot is backed by a live RPC call (whose
    // deadline or delivery event keeps the engine moving).
    auditor_->CheckWorker(now, w.id, w.busy, w.failed,
                          w.pending_call != 0 && rpc_.Alive(w.pending_call),
                          w.queue.size(), w.est_queued_work, final_state,
                          out_of_service);
    auditor_->CheckHints(now, w.id, StoredHints(w.id), HintsOf(w));
    for (const Run& run : w.runs) {
      auditor_->CheckRun(now, w.id, run.job, run.task_index, w.failed,
                         out_of_service, engine_.IsPending(run.pending_event),
                         final_state);
    }
  }
}

void SchedulerBase::FinalAudit() {
  if (auditor_ == nullptr) return;
  AuditWorkers(/*final_state=*/true, 0,
               static_cast<MachineId>(workers_.size()));
  if (power_ != nullptr) {
    const double horizon =
        std::max<double>(makespan_, last_membership_change_);
    auditor_->ExpectEnergy(power_->TotalJoules(horizon), horizon);
  }
  auditor_->Finish();
}

void SchedulerBase::InjectFailure(MachineId id) {
  PHOENIX_CHECK(id < workers_.size());
  FailMachine(workers_[id], /*auto_repair=*/false);
}

void SchedulerBase::InjectRepair(MachineId id) {
  PHOENIX_CHECK(id < workers_.size());
  if (!workers_[id].failed) return;
  RepairMachine(workers_[id]);
}

void SchedulerBase::SubmitTrace(const trace::Trace& trace) {
  PHOENIX_CHECK_MSG(jobs_.empty(), "SubmitTrace may be called once");
  trace_name_ = trace.name();
  short_cutoff_ = trace.short_cutoff();
  // Job records pool their replay lists in the scheduler arena (the copy
  // constructor propagates the arena-bound allocator to every element).
  jobs_.assign(trace.size(), JobRuntime(&arena_));
  // DAG precedence state is a side table (JobRuntime must stay cheaply
  // copyable for the prototype-assign above); built per job at arrival.
  if (dag_on_) dag_states_.resize(trace.size());
  for (const trace::Job& spec : trace.jobs()) {
    JobRuntime& job = jobs_[spec.id];
    job.spec = &spec;
    job.id = spec.id;
    job.effective = spec.constraints;
    job.constrained = spec.constrained();
    if (spec.placement != trace::PlacementPref::kNone) {
      job.used_racks.Resize(cluster_.num_racks());
    }
    engine_.ScheduleAt(spec.submit_time, [this, id = spec.id] {
      HandleJobArrival(id);
    });
  }
  if (packing_on_) {
    // Declare every machine's capacity vector to the sinks (the auditor's
    // conservation ledger opens from these), and seed the estimators with
    // their effective-server counts: a machine able to run c mean-demand
    // tasks concurrently behaves like c pooled servers.
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      WorkerState& w = workers_[i];
      std::uint32_t servers = w.capacity.CopiesOf(mean_demand_);
      if (servers < 1) servers = 1;
      w.estimator.SetEffectiveServers(servers);
      for (std::size_t d = 0; d < packing::kNumPackDims; ++d) {
        Emit(EventType::kPackCapacity, obs::kNoId,
             static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(d),
             w.capacity.dim(d));
      }
    }
  }
  // One heartbeat chain per shard (a single fleet-wide chain unsharded), so
  // no tick ever scans more than one territory.
  const std::uint32_t hb_shards =
      federation_ != nullptr ? federation_->num_shards() : 1;
  for (std::uint32_t s = 0; s < hb_shards; ++s) {
    engine_.ScheduleAfter(config_.heartbeat_interval,
                          [this, s] { HeartbeatTick(s); });
  }
  if (federation_ != nullptr) {
    federation_->Start([this] { return !AllJobsDone(); });
  }
  if (membership_ != nullptr) {
    // Declare the initially-parked universe to the sinks so the auditor can
    // validate every lifecycle transition from its first event.
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (membership_->state(static_cast<MachineId>(i)) ==
          cluster::MachineLifecycle::kParked) {
        Emit(EventType::kMachinePark, obs::kNoId,
             static_cast<std::uint32_t>(i));
      }
    }
  }
  if (power_ != nullptr) {
    // Open every machine's dwell integral and declare the starting wattage
    // to the sinks — the auditor integrates this stream and checks it
    // against the meter's total at FinalAudit (energy conservation).
    power_->StartRun(engine_.Now(), membership_);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Emit(EventType::kPowerState, obs::kNoId, static_cast<std::uint32_t>(i),
           obs::kNoId, power_->watts(static_cast<MachineId>(i)));
      if (power_->asleep(static_cast<MachineId>(i))) {
        workers_[i].estimator.SetWakePenalty(
            power_->WakePenalty(static_cast<MachineId>(i)));
      }
    }
  }
  if (config_.machine_mtbf > 0) {
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      ScheduleNextFailure(static_cast<MachineId>(i));
    }
  }
}

void SchedulerBase::ScheduleNextFailure(MachineId id) {
  const double delay =
      queueing::SampleExponential(rng_, 1.0 / config_.machine_mtbf);
  engine_.ScheduleAfter(delay, [this, id] {
    if (AllJobsDone()) return;  // let the run drain
    FailMachine(workers_[id], /*auto_repair=*/true);
  });
}

std::uint32_t SchedulerBase::TakeNextTaskIndex(JobRuntime& job) {
  if (!job.replay_tasks.empty()) {
    const std::uint32_t index = job.replay_tasks.back();
    job.replay_tasks.pop_back();
    return index;
  }
  PHOENIX_CHECK(job.next_unplaced < job.num_tasks());
  return job.next_unplaced++;
}

MachineId SchedulerBase::PickBindTarget(
    const std::vector<MachineId>& candidates, JobRuntime& job) {
  PHOENIX_CHECK(!candidates.empty());
  if (packing_on_) return PickBestPacked(candidates, job);
  const sim::SimTime now = engine_.Now();
  MachineId best = cluster::kInvalidMachine;
  double best_load = sim::kTimeInfinity;
  for (const MachineId c : candidates) {
    const WorkerState& w = workers_[c];
    if (w.failed || !Bindable(c)) continue;  // delivery would only bounce
    double load = w.est_queued_work;
    for (const Run& run : w.runs) load += std::max(0.0, run.until - now);
    if (load < best_load) {
      best_load = load;
      best = c;
    }
  }
  // Every sampled candidate is down: fall back to a fresh draw from the
  // eligible pool (the delivery bounce re-dispatches again if that one is
  // down too) instead of knowingly binding to a dead worker.
  if (best == cluster::kInvalidMachine) {
    best = SampleEligible(job.effective);
    PHOENIX_CHECK(best != cluster::kInvalidMachine);
    ++counters_.placement_dead_fallbacks;
  }
  return best;
}

QueueEntry SchedulerBase::MakeEntry(const JobRuntime& job,
                                    QueueEntry::Kind kind,
                                    std::uint32_t task_index) const {
  QueueEntry entry;
  entry.kind = kind;
  entry.job = job.id;
  entry.task_index = task_index;
  entry.est_duration = EstimatedTaskDuration(job);
  entry.short_class = job.short_class;
  return entry;
}

QueueEntry SchedulerBase::ReplayEntry(JobRuntime& job) {
  if (UsesDistributedPlane(job) && !DagManaged(job) &&
      !(packing_on_ && (job.gang() || job.malleable()))) {
    return MakeEntry(job, QueueEntry::Kind::kProbe);
  }
  // DAG, gang and malleable replays re-bind: a probe could fetch an
  // unreleased DAG task. A killed index just pushed pops right back (it
  // already ran, so its predecessors are finished).
  return MakeEntry(job, QueueEntry::Kind::kBoundTask, TakeNextTaskIndex(job));
}

void SchedulerBase::RedispatchEntry(QueueEntry entry, double delay) {
  JobRuntime& job = jobs_[entry.job];
  ++counters_.tasks_rescheduled_failure;
  if (entry.kind == QueueEntry::Kind::kProbe) {
    const MachineId target = SampleEligible(job.effective);
    PHOENIX_CHECK(target != cluster::kInvalidMachine);
    ++job.outstanding_probes;
    ++counters_.probes_sent;
    Emit(EventType::kProbeSend, job.id, target);
    SendEntry(target, entry, delay);
    return;
  }
  SendEntry(PickBindTarget(ChooseLongCandidates(job), job), entry,
            std::max(delay, 2 * one_way()));
}

void SchedulerBase::EvictWork(WorkerState& worker, bool kill_runs) {
  // The control slot first, then the runs: both re-dispatch through the
  // shared RNG, so this order is part of the schedule.
  if (worker.busy) {
    rpc_.Cancel(worker.pending_call);
    ReleaseControlSlot(worker);
  }
  if (kill_runs && !worker.runs.empty()) {
    std::vector<Run> runs;
    runs.swap(worker.runs);
    MeterExecEnd(worker);
    for (const Run& run : runs) {
      // The task is lost: un-count its unfinished service and replay it.
      engine_.Cancel(run.pending_event);
      StopRun(worker, run);
      JobRuntime& job = jobs_[run.job];
      job.replay_tasks.push_back(run.task_index);
      Emit(EventType::kTaskKill, job.id, worker.id, run.task_index);
      // Malleable inflight is NOT decremented: the replay below re-covers
      // the task, so it stays "placed" for the width accounting.
      RedispatchEntry(ReplayEntry(job), one_way());
    }
  }
  if (kill_runs) EvictGangReservations(worker);
  RefreshHints(worker);
}

void SchedulerBase::ReleaseControlSlot(WorkerState& worker) {
  const bool resolving = worker.resolving;
  const JobId fetching = worker.fetching_job;
  worker.pending_call = 0;
  worker.resolving = false;
  worker.fetching_job = trace::kInvalidJob;
  worker.busy = false;
  if (resolving) {
    // The probe being resolved never took a task: treat it like one bounced
    // off a dead destination (re-sent while the job has unplaced tasks,
    // dissolved otherwise).
    BounceUndelivered(worker.resolving_entry, worker.id, one_way());
  } else if (fetching != trace::kInvalidJob && !jobs_[fetching].AllPlaced()) {
    // The fetched job's sibling probes may all have resolved, dissolved, or
    // died with other machines by now, so leftover coverage cannot be
    // assumed: re-cover the job with a fresh dispatch.
    ++counters_.sticky_fetch_redispatches;
    RedispatchEntry(ReplayEntry(jobs_[fetching]), one_way());
  }
}

void SchedulerBase::ResetLoadSignals(WorkerState& worker) {
  worker.estimator.Clear();
  worker.last_wait_estimate = 0;
  worker.crv_marked = false;
  worker.steal_inflight = false;
}

obs::WorkerHints SchedulerBase::HintsOf(const WorkerState& worker) const {
  obs::WorkerHints h;
  const bool bindable = Bindable(worker.id);
  h.live = bindable && !worker.failed;
  h.occupied = worker.HoldsWork();
  h.steal_gate = bindable && !worker.steal_inflight && !worker.busy &&
                 worker.queue.empty() && (packing_on_ || worker.runs.empty());
  h.long_busy = worker.long_entries > 0;
  for (const Run& run : worker.runs) {
    if (h.long_busy) break;
    h.long_busy = !run.short_class;
  }
  return h;
}

obs::WorkerHints SchedulerBase::StoredHints(MachineId id) const {
  obs::WorkerHints h;
  h.live = live_.Test(id);
  h.occupied = Occupied(id);
  h.steal_gate = StealGate(id);
  h.long_busy = LongBusy(id);
  return h;
}

void SchedulerBase::RefreshHints(const WorkerState& worker) {
  const obs::WorkerHints h = HintsOf(worker);
  const MachineId id = worker.id;
  if (h.live != live_.Test(id)) {
    const std::uint64_t copies = packing_on_ ? mean_copies_[id] : 0;
    if (h.live) {
      live_.Set(id);
      ++live_count_;
      live_copies_ += copies;
    } else {
      live_.Reset(id);
      --live_count_;
      live_copies_ -= copies;
    }
  }
  occupied_[id] = h.occupied ? 1 : 0;
  steal_gate_[id] = h.steal_gate ? 1 : 0;
  long_busy_[id] = h.long_busy ? 1 : 0;
}

void SchedulerBase::FailMachine(WorkerState& worker, bool auto_repair) {
  if (worker.failed) return;
  worker.failed = true;
  ++counters_.machine_failures;
  Emit(EventType::kMachineFail, obs::kNoId, worker.id);

  EvictWork(worker, /*kill_runs=*/true);

  // Drain the queue, re-dispatching every entry to live workers (stale
  // probes dissolve inside BounceUndelivered).
  while (!worker.queue.empty()) {
    BounceUndelivered(RemoveQueueAt(worker, worker.queue.size() - 1),
                      worker.id, one_way());
  }

  // Repair and the next failure cycle (stochastic injection only; manual
  // InjectFailure leaves repair timing to the caller).
  if (auto_repair) {
    const double repair =
        queueing::SampleExponential(rng_, 1.0 / config_.machine_mttr);
    engine_.ScheduleAfter(repair, [this, wid = worker.id] {
      RepairMachine(workers_[wid]);
    });
  }
}

void SchedulerBase::RepairMachine(WorkerState& worker) {
  PHOENIX_CHECK(worker.failed);
  worker.failed = false;
  // The load signals predate the failure; everything they summarized was
  // killed or re-dispatched, so carrying them over would skew wait-aware
  // probe ranking and CRV reordering until the next heartbeat.
  ResetLoadSignals(worker);
  RefreshHints(worker);
  Emit(EventType::kMachineRepair, obs::kNoId, worker.id);
  TryStartNext(worker);
  if (config_.machine_mtbf > 0 && !AllJobsDone()) {
    ScheduleNextFailure(worker.id);
  }
}

void SchedulerBase::HeartbeatTick(std::uint32_t shard) {
  ++counters_.heartbeats;
  // The tick's scan range: the whole fleet unsharded, only this shard's
  // territory under federation — the structural guarantee that no single
  // shard's heartbeat runs an O(fleet) loop.
  MachineId lo = 0;
  auto hi = static_cast<MachineId>(workers_.size());
  if (federation_ != nullptr) {
    const auto range = federation_->shard_map().range(shard);
    lo = range.first;
    hi = range.second;
    RefreshShardDigest(shard, lo, hi);
  }
  if (tenancy_on_ && federation_ == nullptr) {
    // Fleet-mean E[W] snapshot for SLO-feasibility tests at admission —
    // same cadence as every other load signal (heartbeat synchronization).
    // Federated runs read the gossiped global view at admission instead.
    double sum = 0;
    live_.ForEachSetBit(0, live_.size(), [&](std::size_t id) {
      sum += workers_[id].estimator.EstimateWait();
    });
    fleet_wait_estimate_ =
        live_count_ > 0 ? sum / static_cast<double>(live_count_) : 0;
  }
  OnHeartbeat(lo, hi);
  if (packing_on_) {
    // Fragmentation sample: fleet-mean spread between the most- and
    // least-consumed capacity dimension of each live machine. High spread =
    // stranded capacity (e.g. cores free but memory exhausted).
    double spread_sum = 0;
    live_.ForEachSetBit(0, live_.size(), [&](std::size_t id) {
      spread_sum += residual_spread_[id];
    });
    if (live_count_ > 0) {
      frag_sum_ += spread_sum / static_cast<double>(live_count_);
      ++frag_samples_;
    }
    RefreshMalleableWidths();
  }
  if (tracing()) {
    // Publish the per-worker timeseries after OnHeartbeat so Phoenix's
    // freshly refreshed E[W] / CRV marks are what lands in the export.
    std::size_t queued = 0;
    for (MachineId i = lo; i < hi; ++i) {
      const WorkerState& w = workers_[i];
      queued += w.queue.size();
      obs::WorkerSample sample;
      sample.time = engine_.Now();
      sample.machine = w.id;
      sample.queue_len = static_cast<std::uint32_t>(w.queue.size());
      sample.est_queued_work = w.est_queued_work;
      sample.wait_estimate = w.estimator.EstimateWait();
      sample.crv_marked = w.crv_marked;
      sample.busy = w.busy || !w.runs.empty();
      sample.failed = w.failed;
      for (obs::EventSink* sink : sinks_) sink->OnWorkerSample(sample);
    }
    Emit(EventType::kHeartbeat, obs::kNoId, obs::kNoId, obs::kNoId,
         static_cast<double>(queued));
  }
  AuditWorkers(/*final_state=*/false, lo, hi);
  if (AllJobsDone()) return;  // let the event queue drain so Run() terminates
  engine_.ScheduleAfter(config_.heartbeat_interval,
                        [this, shard] { HeartbeatTick(shard); });
}

void SchedulerBase::RefreshShardDigest(std::uint32_t shard, MachineId lo,
                                       MachineId hi) {
  double sum = 0;
  std::uint32_t live = 0;
  std::uint32_t free_slots = 0;
  live_.ForEachSetBit(lo, hi, [&](std::size_t i) {
    ++live;
    // Clamp so one saturated estimator cannot poison the gossiped mean.
    sum += std::min(workers_[i].estimator.EstimateWait(), 1e6);
    if (occupied_[i] == 0) ++free_slots;
  });
  federation_->RefreshLocal(shard, live > 0 ? sum / live : 0, live,
                            free_slots);
}

void SchedulerBase::HandleJobArrival(JobId id) {
  JobRuntime& job = jobs_[id];
  job.short_class =
      EstimatedTaskDuration(job) <= short_cutoff_;
  Emit(EventType::kJobArrival, id, obs::kNoId, obs::kNoId,
       static_cast<double>(job.num_tasks()));
  if (packing_on_) {
    job.demand = packing::DemandFor(config_.seed, id, config_.packing);
    if (job.spec->req_cpu >= 0 || job.spec->req_mem >= 0 ||
        job.spec->req_gpu >= 0) {
      // Trace-supplied demand (Google-trace requests are normalized to the
      // largest machine) overrides the hashed sampler. Unset dimensions stay
      // zero and never constrain placement; the feasibility clamp below
      // still guarantees a hostable vector.
      job.demand = packing::ResourceVector{};
      job.demand[packing::PackDim::kCores] =
          std::max(0.0, job.spec->req_cpu) *
          max_capacity_[packing::PackDim::kCores];
      job.demand[packing::PackDim::kMemoryGb] =
          std::max(0.0, job.spec->req_mem) *
          max_capacity_[packing::PackDim::kMemoryGb];
      job.demand[packing::PackDim::kGpus] =
          std::max(0.0, job.spec->req_gpu) *
          max_capacity_[packing::PackDim::kGpus];
    }
  }
  // Tenant admission runs first: it may demote the class, strip the SLO, or
  // trade a soft constraint away before the constraint layers see the job.
  if (tenancy_on_) ApplyTenantAdmission(job);
  AdmitJob(job);
  // The feasibility clamp must see the post-admission constraint set: a
  // demand no *satisfying* machine can host would bounce between delivery
  // and redispatch forever (the satisfying pool and the capacity-fitting
  // pool must intersect).
  if (packing_on_) ClampDemandToHostable(job);
  if (deadline_on_) AssignDeadline(job);
  if (DagManaged(job)) {
    // Precedence-driven dispatch: only source tasks enter the cluster now;
    // completions release the rest. DAG jobs bypass both probe planes and
    // the gang/malleable paths, whatever their duration class.
    PlaceDagJob(job);
    return;
  }
  if (packing_on_ && job.num_tasks() > 1) {
    // Gang and malleable jobs bypass both probe planes: their tasks bind
    // centrally (reserve -> commit for gangs, width-tracked top-up for
    // malleable jobs), whatever their duration class.
    if (job.gang()) {
      job.gang_arrival = engine_.Now();
      ++counters_.gangs_placed;
      PlaceGang(id);
      return;
    }
    if (job.malleable()) {
      PlaceMalleable(id);
      return;
    }
  }
  if (UsesDistributedPlane(job)) {
    PlaceDistributed(job);
  } else {
    PlaceCentralized(job);
  }
}

// Base admission control: *forced* relaxation only. If no machine satisfies
// the full set, soft constraints are dropped scarcest-pool-first; if the
// hard core is itself unsatisfiable, all constraints are dropped so the job
// can run (counted in tasks_admission_rejected). Phoenix layers proactive
// negotiation on top of this (core/phoenix.cc).
void SchedulerBase::AdmitJob(JobRuntime& job) {
  // Admission validates against the guaranteed pool (the base fleet under
  // elasticity), so an admitted job can never be stranded by later churn.
  while (CountAdmissible(job.effective) == 0) {
    if (!RelaxOneSoftConstraint(job)) {
      // Only hard constraints left and still unsatisfiable: the request
      // cannot be honored anywhere. Run it unconstrained rather than
      // stranding the tasks.
      if (!job.effective.empty()) {
        counters_.tasks_admission_rejected += job.num_tasks();
        Emit(EventType::kAdmissionRelax, job.id, obs::kNoId, obs::kNoId,
             static_cast<double>(job.effective.size()));
        job.effective = cluster::ConstraintSet();
        job.duration_multiplier *= config_.soft_relax_penalty;
      }
      return;
    }
  }
}

bool SchedulerBase::RelaxOneSoftConstraint(JobRuntime& job) {
  // Find the soft constraint with the smallest individual pool.
  std::size_t victim = job.effective.size();
  std::size_t victim_pool = SIZE_MAX;
  for (std::size_t i = 0; i < job.effective.size(); ++i) {
    if (job.effective[i].hard) continue;
    const std::size_t pool = CountAdmissible(job.effective[i]);
    if (pool < victim_pool) {
      victim_pool = pool;
      victim = i;
    }
  }
  if (victim == job.effective.size()) return false;
  job.effective = job.effective.WithoutConstraint(victim);
  job.duration_multiplier *= config_.soft_relax_penalty;
  ++job.relaxed_constraints;
  ++counters_.soft_constraints_relaxed;
  Emit(EventType::kAdmissionRelax, job.id, obs::kNoId, obs::kNoId, 1);
  return true;
}

// ---- Tenancy ---------------------------------------------------------------

void SchedulerBase::ApplyTenantAdmission(JobRuntime& job) {
  if (!tenants_.Known(job.spec->tenant)) return;  // untenanted: full bypass
  job.tenant = job.spec->tenant;
  const tenancy::TenantSpec& spec = tenants_.spec(job.tenant);
  tenancy::TenantState& state = tenants_.state(job.tenant);
  ++state.jobs;

  tenancy::AdmissionInput in;
  in.priority = spec.priority;
  in.short_class = job.short_class;
  in.constrained = job.constrained;
  in.slo_target = job.short_class ? spec.slo_target : 0;
  in.job_work = job.spec->total_work();
  in.committed = state.committed;
  in.budget =
      tenants_.Budget(job.tenant, workers_.size(), config_.tenancy.quota_window);
  // The SLO feasibility signal: fleet-mean E[W] from the last heartbeat plus
  // the unavoidable probe/bind round trip. Under federation the job's home
  // shard answers from its gossiped global view (own territory + fresh
  // peers) — the "quota consistent via owning shard" read path.
  in.predicted_wait =
      (federation_ != nullptr
           ? federation_->GlobalMeanWait(federation_->HomeShard(job.id))
           : fleet_wait_estimate_) +
      2 * one_way();
  in.constrained_share = tenants_.ConstrainedShare(job.tenant);
  in.crv_share_limit = spec.crv_share;
  const tenancy::AdmissionDecision d = tenancy::DecideAdmission(in);

  job.priority = d.priority;
  if (in.slo_target > 0 && !d.strip_slo) {
    job.slo_target = in.slo_target;
    job.slo_tracked = true;
    ++state.slo_jobs;
    ++counters_.tenant_slo_jobs;
  }
  if (d.slo_at_risk) {
    ++state.slo_at_risk;
    ++counters_.tenant_slo_at_risk;
  }
  double quota_fraction = 0;
  if (d.charge_quota) {
    job.quota_charge = in.job_work;
    quota_fraction = tenants_.Charge(job.tenant, in.job_work, in.budget);
  }
  if (d.relax_constraint) RelaxOneSoftConstraint(job);

  EventType type = EventType::kTenantAdmit;
  switch (d.verdict) {
    case tenancy::Verdict::kAdmit:
      ++state.admits;
      ++counters_.tenant_admits;
      break;
    case tenancy::Verdict::kDowngrade:
      ++state.downgrades;
      ++counters_.tenant_downgrades;
      type = EventType::kTenantDowngrade;
      break;
    case tenancy::Verdict::kReject:
      ++state.rejects;
      ++counters_.tenant_rejects;
      type = EventType::kTenantReject;
      break;
  }
  Emit(type, job.id, job.tenant, tenancy::PriorityRank(job.priority),
       quota_fraction);
}

void SchedulerBase::TenantQueuedDelta(const QueueEntry& entry, double sign) {
  const JobRuntime& job = jobs_[entry.job];
  if (!job.constrained || !tenants_.Known(job.tenant)) return;
  tenants_.AdjustConstrainedQueued(job.tenant, sign * entry.est_duration);
}

void SchedulerBase::MaybePreemptFor(WorkerState& worker,
                                    const QueueEntry& entry) {
  if (worker.runs.empty() || HasRoom(worker, entry)) return;  // no need
  // Never preempt on a machine outside the bindable fleet. A draining
  // machine's runs already belong to the drain/retire sweep; a preemption
  // requeue would hand the victim to a second recovery path and the two
  // could redispatch it twice. DeliverEntry bounces before reaching this
  // point today, but any future caller (cross-shard binds, policy ticks)
  // must hit the same wall — the sweep alone recovers the machine's work.
  if (membership_ != nullptr && !membership_->Bindable(worker.id)) {
    ++counters_.preemptions_blocked_lifecycle;
    return;
  }
  const JobRuntime& incoming = jobs_[entry.job];
  if (incoming.priority != tenancy::PriorityClass::kProd) return;
  // A probe of a fully placed job would dissolve at resolution — never kill
  // running work for it.
  if (entry.kind == QueueEntry::Kind::kProbe && incoming.AllPlaced()) return;
  // Newest run first (LIFO loses the least served work), each judged by its
  // own snapshot, until the entry has room.
  for (std::size_t i = worker.runs.size();
       i-- > 0 && !HasRoom(worker, entry);) {
    const Run& run = worker.runs[i];
    switch (preempt_policy_.Judge(incoming.priority, jobs_[run.job].priority,
                                  run.bypass_exhausted, run.preempt_count)) {
      case tenancy::PreemptVerdict::kPreempt:
        if (tenants_.Known(incoming.tenant)) {
          ++tenants_.state(incoming.tenant).preemptions_issued;
        }
        PreemptRun(worker, i);
        break;
      case tenancy::PreemptVerdict::kGuardedBySlack:
        ++counters_.preemptions_blocked_guard;
        break;
      case tenancy::PreemptVerdict::kPreemptCapReached:
        ++counters_.preemptions_blocked_cap;
        break;
      case tenancy::PreemptVerdict::kIneligible:
        break;
    }
  }
}

void SchedulerBase::PreemptRun(WorkerState& worker, std::size_t index) {
  const Run run = worker.runs[index];
  worker.runs.erase(worker.runs.begin() + static_cast<std::ptrdiff_t>(index));
  engine_.Cancel(run.pending_event);
  StopRun(worker, run);
  MeterExecEnd(worker);
  JobRuntime& victim = jobs_[run.job];
  // The machine was genuinely busy for `elapsed`; StopRun took only the
  // unserved remainder out of the busy-time integral. The served part is
  // wasted work.
  const double elapsed = std::max(0.0, engine_.Now() - run.start);
  counters_.preemption_lost_seconds += elapsed;
  ++counters_.preemptions_issued;
  ++victim.preemptions;
  if (tenants_.Known(victim.tenant)) {
    ++tenants_.state(victim.tenant).preemptions_suffered;
  }
  // The auditor counts the issue as a kill; the matching requeue below keeps
  // its preemption-conservation set balanced.
  Emit(EventType::kPreemptIssue, victim.id, worker.id, run.task_index,
       elapsed);

  // Requeue on the same worker. Kill and requeue are one local control
  // action — no message transits the fabric — so chaos injection cannot
  // strand a preempted task.
  QueueEntry entry =
      MakeEntry(victim, QueueEntry::Kind::kBoundTask, run.task_index);
  entry.service_penalty = config_.tenancy.preemption_restart_cost;
  entry.preempt_count = static_cast<std::uint8_t>(
      std::min<std::size_t>(run.preempt_count + 1, 255));
  EnqueueEntry(worker, entry);
  ++counters_.preemption_requeues;
  Emit(EventType::kPreemptRequeue, victim.id, worker.id, run.task_index);
}

std::size_t SchedulerBase::PromoteByPriority(const WorkerState& worker,
                                             std::size_t chosen) const {
  const QueueEntry& pick = worker.queue[chosen];
  // Never override the starvation guard's selection.
  if (pick.bypass_count >= config_.slack_threshold) return chosen;
  std::uint8_t best_rank = tenancy::PriorityRank(jobs_[pick.job].priority);
  std::size_t best = chosen;
  for (std::size_t i = 0; i < worker.queue.size(); ++i) {
    if (i == chosen) continue;
    const std::uint8_t rank =
        tenancy::PriorityRank(jobs_[worker.queue[i].job].priority);
    if (rank < best_rank) {  // first entry of a strictly higher class wins
      best_rank = rank;
      best = i;
    }
  }
  return best;
}

void SchedulerBase::OnTenantJobComplete(JobRuntime& job) {
  if (!tenants_.Known(job.tenant)) return;
  tenancy::TenantState& state = tenants_.state(job.tenant);
  if (job.quota_charge > 0) {
    tenants_.Release(job.tenant, job.quota_charge);
    job.quota_charge = 0;
  }
  if (job.slo_tracked && job.max_task_wait <= job.slo_target) {
    ++state.slo_attained;
    ++counters_.tenant_slo_attained;
  }
}

bool SchedulerBase::UsesDistributedPlane(const JobRuntime& job) const {
  return job.short_class;
}

std::vector<MachineId> SchedulerBase::ChooseProbeTargets(
    const JobRuntime& job) {
  return SampleEligible(job.effective, config_.probe_ratio * job.num_tasks());
}

std::vector<MachineId> SchedulerBase::ChooseLongCandidates(
    const JobRuntime& job) {
  return SampleDistinctEligible(job.effective, config_.power_of_d);
}

std::size_t SchedulerBase::SelectNextIndex(const WorkerState& worker) {
  return IndexRespectingSlack(worker, 0);
}

std::size_t SchedulerBase::SrptIndex(const WorkerState& worker) const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < worker.queue.size(); ++i) {
    if (worker.queue[i].est_duration < worker.queue[best].est_duration) {
      best = i;
    }
  }
  return best;
}

void SchedulerBase::OnWorkerIdle(WorkerState&) {}
void SchedulerBase::OnHeartbeat(MachineId, MachineId) {}
bool SchedulerBase::UseStickyBatchProbing(const JobRuntime&) const {
  return false;
}
void SchedulerBase::OnEntryEnqueued(const WorkerState&, const QueueEntry&) {}
void SchedulerBase::OnEntryDequeued(const WorkerState&, const QueueEntry&) {}

std::size_t SchedulerBase::IndexRespectingSlack(const WorkerState& worker,
                                                std::size_t preferred) const {
  for (std::size_t i = 0; i < worker.queue.size(); ++i) {
    if (worker.queue[i].bypass_count >= config_.slack_threshold) {
      return i;  // oldest starved entry runs next, no matter what
    }
  }
  return preferred;
}

void SchedulerBase::FilterByPlacement(
    const JobRuntime& job, std::vector<MachineId>& candidates) const {
  if (job.placement() == trace::PlacementPref::kNone || candidates.empty()) {
    return;
  }
  std::vector<MachineId> filtered;
  filtered.reserve(candidates.size());
  if (job.placement() == trace::PlacementPref::kSpread) {
    for (const MachineId id : candidates) {
      if (!job.used_racks.Test(cluster_.rack_of(id))) filtered.push_back(id);
    }
  } else {  // kColocate
    if (job.anchor_rack == cluster::kInvalidRack) return;  // anchor not set yet
    for (const MachineId id : candidates) {
      if (cluster_.rack_of(id) == job.anchor_rack) filtered.push_back(id);
    }
  }
  if (!filtered.empty()) candidates = std::move(filtered);
}

void SchedulerBase::NoteRackCommitment(JobRuntime& job, cluster::RackId rack) {
  switch (job.placement()) {
    case trace::PlacementPref::kNone:
      return;
    case trace::PlacementPref::kSpread:
      if (job.used_racks.Test(rack)) {
        ++counters_.placement_spread_violations;
      } else {
        job.used_racks.Set(rack);
      }
      return;
    case trace::PlacementPref::kColocate:
      if (job.anchor_rack == cluster::kInvalidRack) {
        job.anchor_rack = rack;
      } else if (rack != job.anchor_rack) {
        ++counters_.placement_colocate_misses;
      }
      job.used_racks.Set(rack);
      return;
  }
}

MachineId SchedulerBase::SampleEligibleInShard(const cluster::ConstraintSet& cs,
                                               std::uint32_t shard) {
  const auto [lo, hi] = federation_->shard_map().range(shard);
  // Rejection-sample the eligible pool into the territory. The attempt
  // budget scales with the shard count (a uniform global draw lands in a
  // given territory ~1/S of the time).
  const std::size_t attempts = 4 * federation_->num_shards();
  for (std::size_t a = 0; a < attempts; ++a) {
    const MachineId m = SampleEligible(cs);
    if (m >= lo && m < hi) return m;
  }
  // The constraint pool (likely) misses this territory: place globally
  // rather than strand the job on a shard that cannot serve it.
  ++counters_.fed_territory_fallbacks;
  return SampleEligible(cs);
}

// Federated distributed placement: probes sample the job's target territory
// — its home shard, or a peer chosen optimistically from the gossiped view
// when home is saturated. Late binding self-corrects bad guesses (a probe
// resolving at a busy peer just dissolves or waits), so no accept/reject
// handshake is needed on this plane.
void SchedulerBase::PlaceDistributedFederated(JobRuntime& job) {
  const std::uint32_t home = federation_->HomeShard(job.id);
  std::uint32_t target_shard = home;
  const std::uint32_t peer = federation_->PickOffloadPeer(home);
  if (peer != federation::kNoShard) {
    target_shard = peer;
    ++counters_.fed_offloads;
  }
  const auto [lo, hi] = federation_->shard_map().range(home);
  const std::size_t wanted =
      std::max<std::size_t>(config_.probe_ratio * job.num_tasks(),
                            job.num_tasks());
  std::vector<MachineId> targets;
  targets.reserve(wanted);
  for (std::size_t i = 0; i < wanted; ++i) {
    targets.push_back(SampleEligibleInShard(job.effective, target_shard));
  }
  FilterByPlacement(job, targets);
  while (targets.size() < wanted) {
    targets.push_back(SampleEligibleInShard(job.effective, target_shard));
  }
  for (const MachineId target : targets) {
    if (target < lo || target >= hi) ++counters_.fed_cross_shard_probes;
  }
  SendProbes(job, targets);
}

// Federated centralized placement: each task binds least-loaded within the
// target territory. A bind leaving the home shard is optimistic — it rides
// a possibly-stale free-slot advertisement, is marked cross_shard, and runs
// double-bind detection at delivery (DeliverEntry): only a genuinely free
// slot accepts; anything else rejects back into the home redispatch path.
void SchedulerBase::PlaceCentralizedFederated(JobRuntime& job) {
  const std::uint32_t home = federation_->HomeShard(job.id);
  while (!job.AllPlaced()) {
    const std::uint32_t index = TakeNextTaskIndex(job);
    std::uint32_t target_shard = home;
    const std::uint32_t peer = federation_->PickOffloadPeer(home);
    if (peer != federation::kNoShard) {
      target_shard = peer;
      ++counters_.fed_offloads;
    }
    std::vector<MachineId> candidates;
    candidates.reserve(config_.power_of_d);
    for (std::size_t i = 0; i < config_.power_of_d; ++i) {
      candidates.push_back(
          SampleEligibleInShard(job.effective, target_shard));
    }
    FilterByPlacement(job, candidates);
    const MachineId best = PickBindTarget(candidates, job);
    NoteRackCommitment(job, cluster_.rack_of(best));
    QueueEntry entry = MakeEntry(job, QueueEntry::Kind::kBoundTask, index);
    if (federation_->shard_of(best) != home) {
      entry.cross_shard = true;
      ++counters_.fed_bind_attempts;
      Emit(EventType::kFedBindSend, job.id, best, index);
    }
    SendEntry(best, entry, one_way());
  }
}

void SchedulerBase::PlaceDistributed(JobRuntime& job) {
  if (federation_ != nullptr) {
    PlaceDistributedFederated(job);
    return;
  }
  // Colocate jobs anchor to a rack up front (production systems anchor to
  // the rack holding the job's input data), so the probes themselves can be
  // steered there.
  if (job.placement() == trace::PlacementPref::kColocate &&
      job.anchor_rack == cluster::kInvalidRack) {
    const MachineId anchor = SampleEligible(job.effective);
    if (anchor != cluster::kInvalidMachine) {
      job.anchor_rack = cluster_.rack_of(anchor);
    }
  }
  std::vector<MachineId> targets = ChooseProbeTargets(job);
  if (targets.empty() && power_ != nullptr) {
    // Every satisfying machine is asleep (the probe choosers iterate the
    // bindable pool directly): wake one and aim the probes at it —
    // deliveries bounce until the S3 exit commissions the machine.
    const MachineId woken = WakeSatisfierFallback(job.effective);
    if (woken != cluster::kInvalidMachine) targets.push_back(woken);
  }
  PHOENIX_CHECK_MSG(!targets.empty(),
                    "admission control must leave a satisfiable pool");
  FilterByPlacement(job, targets);
  // The placement filter may have shrunk the list below the probe budget;
  // a job needs at least one live probe per task or its tail strands. Top
  // up, preferring the anchor rack for colocate jobs before spilling over.
  const std::size_t wanted = config_.probe_ratio * job.num_tasks();
  std::size_t attempts = 0;
  while (targets.size() < wanted && attempts < 6 * wanted) {
    ++attempts;
    const MachineId extra = SampleEligible(job.effective);
    if (extra == cluster::kInvalidMachine) break;
    if (job.placement() == trace::PlacementPref::kColocate &&
        job.anchor_rack != cluster::kInvalidRack &&
        cluster_.rack_of(extra) != job.anchor_rack &&
        attempts < 4 * wanted) {
      continue;  // keep trying for the anchor rack first
    }
    targets.push_back(extra);
  }
  PHOENIX_CHECK_MSG(targets.size() >= job.num_tasks(),
                    "probe budget below task count");
  SendProbes(job, targets);
}

void SchedulerBase::SendProbes(JobRuntime& job,
                               const std::vector<MachineId>& targets) {
  counters_.probes_sent += targets.size();
  job.outstanding_probes += static_cast<std::uint32_t>(targets.size());
  const QueueEntry probe = MakeEntry(job, QueueEntry::Kind::kProbe);
  for (const MachineId target : targets) {
    Emit(EventType::kProbeSend, job.id, target);
    SendEntry(target, probe, one_way());
  }
}

void SchedulerBase::PlaceCentralized(JobRuntime& job) {
  if (federation_ != nullptr) {
    PlaceCentralizedFederated(job);
    return;
  }
  while (!job.AllPlaced()) BindTask(job, TakeNextTaskIndex(job));
}

void SchedulerBase::BindTask(JobRuntime& job, std::uint32_t task_index) {
  std::vector<MachineId> candidates = ChooseLongCandidates(job);
  PHOENIX_CHECK_MSG(!candidates.empty(),
                    "admission control must leave a satisfiable pool");
  FilterByPlacement(job, candidates);
  const MachineId best = PickBindTarget(candidates, job);
  NoteRackCommitment(job, cluster_.rack_of(best));
  SendEntry(best, MakeEntry(job, QueueEntry::Kind::kBoundTask, task_index),
            one_way());
}

void SchedulerBase::SendEntry(MachineId target, QueueEntry entry, double delay,
                              MachineId from) {
  rpc_.Send(from, target,
            entry.kind == QueueEntry::Kind::kProbe
                ? net::MessageKind::kProbe
                : net::MessageKind::kTaskBind,
            delay, [this, target, entry] { DeliverEntry(target, entry); },
            [this, target, entry] { GiveUpEntry(target, entry); });
}

void SchedulerBase::DeliverEntry(MachineId target, QueueEntry entry) {
  if (packing_on_ && !gangs_.empty() && gangs_.count(entry.job) != 0) {
    // Gang member arriving inside an open reservation round: stage it for
    // the atomic commit instead of queueing (post-commit replays of gang
    // tasks flow through the normal path below — their round is closed).
    DeliverGangMember(target, std::move(entry));
    return;
  }
  WorkerState& w = workers_[target];
  if (entry.cross_shard) {
    // Double-bind detection for an optimistic cross-shard bind: the free
    // slot it was sent toward may have been taken (or the machine lost)
    // while the bind transited on a stale view. Accept only a genuinely
    // free slot; otherwise reject back into the home redispatch path.
    // Exactly one kFedBindAccept / kFedBindReject per kFedBindSend — the
    // auditor's fed-bind conservation rule.
    const bool slot_free = !w.failed && Bindable(target) && !w.HoldsWork();
    entry.cross_shard = false;  // resolved either way; requeues are plain
    if (slot_free) {
      ++counters_.fed_bind_accepts;
      Emit(EventType::kFedBindAccept, entry.job, target, entry.task_index);
    } else {
      ++counters_.fed_bind_rejects;
      Emit(EventType::kFedBindReject, entry.job, target, entry.task_index);
      BounceUndelivered(std::move(entry), target, fabric_.bounce_backoff());
      return;
    }
  }
  if (w.failed || !Bindable(target)) {
    // The destination died (or left the bindable fleet) in transit: bounce
    // to a live worker after the fabric's pacing backoff. Stale probes (job
    // fully placed) dissolve.
    BounceUndelivered(std::move(entry), target, fabric_.bounce_backoff());
    return;
  }
  if (packing_on_ && !jobs_[entry.job].demand.FitsIn(w.capacity)) {
    // The demand exceeds this machine's *total* capacity: the entry could
    // never start here no matter how the residual moves. Queueing it would
    // strand it, so re-cover it like a bounce off a dead destination (the
    // rebind paths prefer capacity-fitting machines).
    ++counters_.pack_fit_rejections;
    BounceUndelivered(std::move(entry), target, fabric_.bounce_backoff());
    return;
  }
  w.steal_inflight = false;  // incoming work satisfies any pending steal
  EnqueueEntry(w, entry);
  if (tenancy_on_) MaybePreemptFor(w, entry);
  TryStartNext(w);
}

void SchedulerBase::EnqueueEntry(WorkerState& worker, QueueEntry entry) {
  entry.enqueue_time = engine_.Now();
  entry.bypass_count = 0;
  worker.queue.push_back(entry);
  worker.est_queued_work += entry.est_duration;
  if (entry.kind == QueueEntry::Kind::kBoundTask && !entry.short_class) {
    ++worker.long_entries;
  } else if (entry.kind == QueueEntry::Kind::kProbe && entry.short_class) {
    ++short_probe_counts_[worker.id];
    ++short_probes_queued_;
  }
  RefreshHints(worker);
  worker.estimator.OnArrival(engine_.Now());
  OnEntryEnqueued(worker, entry);
  if (tenancy_on_) TenantQueuedDelta(entry, +1);
}

void SchedulerBase::GiveUpEntry(MachineId target, QueueEntry entry) {
  // Every delivery attempt toward `target` timed out. The entry never
  // arrived, so re-cover it exactly like a transit bounce; also clear the
  // target's steal marker, else a lost steal transfer would block that
  // worker from ever stealing again.
  workers_[target].steal_inflight = false;
  RefreshHints(workers_[target]);
  if (packing_on_ && !gangs_.empty()) {
    auto it = gangs_.find(entry.job);
    if (it != gangs_.end()) {
      // A gang member that never arrived fails its whole round: reclaim the
      // task index and close the member so the round can abort and retry.
      jobs_[entry.job].replay_tasks.push_back(entry.task_index);
      it->second.failed = true;
      ++it->second.closed;
      CloseGangMember(entry.job);
      return;
    }
  }
  if (entry.cross_shard) {
    // The optimistic bind never reached the peer: close its accept/reject
    // pair as a rejection so the conservation rule stays balanced.
    entry.cross_shard = false;
    ++counters_.fed_bind_rejects;
    Emit(EventType::kFedBindReject, entry.job, target, entry.task_index);
  }
  BounceUndelivered(std::move(entry), target, one_way());
}

void SchedulerBase::BounceUndelivered(QueueEntry entry, MachineId target,
                                      double delay) {
  if (entry.kind == QueueEntry::Kind::kProbe) {
    JobRuntime& job = jobs_[entry.job];
    PHOENIX_CHECK(job.outstanding_probes > 0);
    --job.outstanding_probes;
    if (job.AllPlaced()) {
      ++counters_.probes_cancelled;
      Emit(EventType::kProbeCancel, entry.job, target);
      return;
    }
    ++counters_.probes_bounced;
    Emit(EventType::kProbeBounce, entry.job, target);
  }
  RedispatchEntry(std::move(entry), delay);
}

QueueEntry SchedulerBase::PopQueueAt(WorkerState& worker, std::size_t index) {
  PHOENIX_CHECK(index < worker.queue.size());
  for (std::size_t i = 0; i < index; ++i) {
    ++worker.queue[i].bypass_count;
  }
  return RemoveQueueAt(worker, index);
}

QueueEntry SchedulerBase::RemoveQueueAt(WorkerState& worker,
                                        std::size_t index) {
  PHOENIX_CHECK(index < worker.queue.size());
  QueueEntry entry = worker.queue[index];
  worker.queue.erase(worker.queue.begin() +
                     static_cast<std::ptrdiff_t>(index));
  worker.est_queued_work =
      std::max(0.0, worker.est_queued_work - entry.est_duration);
  if (entry.kind == QueueEntry::Kind::kBoundTask && !entry.short_class) {
    PHOENIX_CHECK(worker.long_entries > 0);
    --worker.long_entries;
  } else if (entry.kind == QueueEntry::Kind::kProbe && entry.short_class &&
             short_probe_counts_[worker.id] > 0) {
    // Saturating, like est_queued_work above: white-box tests stuff queues
    // directly without going through DeliverEntry's accounting.
    --short_probe_counts_[worker.id];
    --short_probes_queued_;
  }
  RefreshHints(worker);
  OnEntryDequeued(worker, entry);
  if (tenancy_on_) TenantQueuedDelta(entry, -1);
  return entry;
}

bool SchedulerBase::HasRoom(const WorkerState& worker,
                            const QueueEntry& entry) const {
  return packing_on_ ? PackedFits(worker, entry) : worker.runs.empty();
}

void SchedulerBase::TryStartNext(WorkerState& worker) {
  if (worker.failed || worker.busy) return;
  while (!worker.queue.empty()) {
    // A single-slot worker's one run leaves room for nothing. Checked before
    // SelectNextIndex, which counts reorders and emits events.
    if (!packing_on_ && !worker.runs.empty()) return;
    std::size_t index = SelectNextIndex(worker);
    PHOENIX_CHECK_MSG(index < worker.queue.size(),
                      "queue discipline returned an out-of-range index");
    if (tenancy_on_) {
      const std::size_t promoted = PromoteByPriority(worker, index);
      if (promoted != index) {
        index = promoted;
        ++counters_.tenant_priority_promotions;
      }
    }
    if (deadline_on_) {
      // EDF tie-break runs last: an earlier-deadline entry overrides both the
      // discipline's pick and the class promotion (never the slack guard).
      const std::size_t promoted = PromoteByDeadline(worker, index);
      if (promoted != index) {
        index = promoted;
        ++counters_.deadline_promotions;
      }
    }
    if (!HasRoom(worker, worker.queue[index])) {
      // Packed backfill: the first entry in queue order that fits runs
      // instead. The selected entry keeps its place and accrues bypass
      // credit via PopQueueAt, so the starvation guard still sees it.
      ++counters_.pack_fit_rejections;
      std::size_t fit = 0;
      while (fit < worker.queue.size() &&
             (fit == index || !HasRoom(worker, worker.queue[fit]))) {
        ++fit;
      }
      if (fit == worker.queue.size()) return;  // wait for a completion
      index = fit;
    }
    QueueEntry entry = PopQueueAt(worker, index);
    if (entry.kind == QueueEntry::Kind::kBoundTask) {
      StartRun(worker, jobs_[entry.job], entry.task_index, &entry);
      continue;
    }
    // Probe: hold the control slot while fetching the task over one RTT
    // (late binding). The fetch is a fabric round trip; a lost request or
    // reply times out and re-covers the probe instead of stranding the slot.
    worker.busy = true;
    worker.resolving = true;
    worker.resolving_entry = entry;
    RefreshHints(worker);
    worker.pending_call = rpc_.RoundTrip(
        worker.id, net::kControllerNode, net::MessageKind::kFetchRequest,
        one_way(),
        [this, wid = worker.id, entry] {
          WorkerState& w = workers_[wid];
          w.pending_call = 0;
          w.resolving = false;
          ResolveProbe(w, entry);
        },
        [this, wid = worker.id] { AbortFetch(wid); });
    return;
  }
  if (worker.runs.empty()) OnWorkerIdle(worker);
}

void SchedulerBase::AbortFetch(MachineId wid) {
  WorkerState& w = workers_[wid];
  ReleaseControlSlot(w);
  RefreshHints(w);
  TryStartNext(w);
}

void SchedulerBase::ResolveProbe(WorkerState& worker, QueueEntry entry) {
  JobRuntime& job = jobs_[entry.job];
  PHOENIX_CHECK(job.outstanding_probes > 0);
  --job.outstanding_probes;
  worker.busy = false;  // the fetch has landed
  RefreshHints(worker);
  const cluster::RackId rack = cluster_.rack_of(worker.id);
  const auto remaining =
      static_cast<std::uint32_t>(job.num_tasks()) - job.next_unplaced +
      static_cast<std::uint32_t>(job.replay_tasks.size());
  if (job.AllPlaced()) {
    // All tasks already placed elsewhere: the proxy probe dissolves.
    ++counters_.probes_cancelled;
    Emit(EventType::kProbeCancel, job.id, worker.id);
  } else if (job.placement() == trace::PlacementPref::kSpread &&
             job.used_racks.Test(rack) && job.outstanding_probes >= remaining) {
    // Spread preference: decline this probe if the rack already hosts a
    // task of the job AND enough probes remain in flight to cover the
    // unplaced tasks elsewhere (the preference is soft — with no slack
    // left, accept and count the violation via NoteRackCommitment).
    ++counters_.probes_declined_placement;
    Emit(EventType::kProbeDecline, job.id, worker.id);
  } else if (!HasRoom(worker, entry)) {
    // Packed capacity moved while the fetch transited: the machine cannot
    // host the demand any more. Re-cover the probe elsewhere (not a
    // failure — compensate RedispatchEntry's counter).
    ++counters_.pack_fit_rejections;
    RedispatchEntry(entry, one_way());
    --counters_.tasks_rescheduled_failure;
  } else {
    const std::uint32_t index = TakeNextTaskIndex(job);
    Emit(EventType::kProbeResolve, job.id, worker.id, index);
    NoteRackCommitment(job, rack);
    StartRun(worker, job, index, &entry);
  }
  TryStartNext(worker);
}

void SchedulerBase::RecordTaskStart(JobRuntime& job, sim::SimTime start) {
  const double wait = start - job.spec->submit_time;
  PHOENIX_CHECK_MSG(wait >= 0, "task started before job submission");
  job.sum_task_wait += wait;
  job.max_task_wait = std::max(job.max_task_wait, wait);
  ++job.task_starts;
}

void SchedulerBase::StartRun(WorkerState& worker, JobRuntime& job,
                             std::uint32_t task_index,
                             const QueueEntry* popped, bool from_reserve) {
  PHOENIX_CHECK_MSG(packing_on_ || worker.runs.empty(),
                    "single-slot worker already running");
  const sim::SimTime now = engine_.Now();
  const double penalty = popped != nullptr ? popped->service_penalty : 0.0;
  double duration = job.ActualDuration(task_index) + penalty;
  if (power_ != nullptr) {
    // Ondemand boost: arriving work snaps a throttled machine back to P0,
    // so DVFS thins the idle draw of lightly loaded machines without
    // stretching service (frequency transitions are instantaneous next to
    // task durations; S3 wakes are the latency that matters).
    if (worker.runs.empty() && power_->p_state(worker.id) != 0 &&
        !power_->executing(worker.id)) {
      ++counters_.power_dvfs_raises;
      const double boosted = power_->SetPState(worker.id, 0, now);
      Emit(EventType::kPowerDvfs, obs::kNoId, worker.id, 0, boosted);
      Emit(EventType::kPowerState, obs::kNoId, worker.id, obs::kNoId, boosted);
    }
    duration *= power_->SpeedMultiplier(worker.id);
    if (worker.runs.empty()) {
      // Exec metering opens on the 0 -> 1 run transition only; concurrent
      // packed runs share the machine's single exec draw.
      const double watts = power_->OnExecBegin(worker.id, now);
      if (watts >= 0) {
        Emit(EventType::kPowerState, obs::kNoId, worker.id, obs::kNoId, watts);
      }
    }
  }
  if (penalty > 0) counters_.preemption_restart_seconds += penalty;
  if (packing_on_) {
    if (!from_reserve) ClaimPackedCapacity(worker, job.demand, 1.0, job.id);
    ++counters_.packed_tasks;
    packed_core_seconds_ += duration * job.demand[packing::PackDim::kCores];
  }
  RecordTaskStart(job, now);
  ++worker.tasks_started;
  Run run;
  run.job = job.id;
  run.task_index = task_index;
  run.run_id = worker.next_run_id++;
  run.start = now;
  run.until = now + duration;
  run.short_class = job.short_class;
  if (popped != nullptr) {
    run.bypass_exhausted = popped->bypass_count >= config_.slack_threshold;
    run.preempt_count = popped->preempt_count;
  }
  total_busy_time_ += duration;
  Emit(EventType::kTaskStart, job.id, worker.id, task_index, duration);
  run.pending_event = engine_.ScheduleAt(
      run.until, [this, wid = worker.id, rid = run.run_id, duration] {
        FinishRun(wid, rid, duration);
      });
  worker.runs.push_back(run);
  RefreshHints(worker);
}

void SchedulerBase::FinishRun(MachineId wid, std::uint32_t run_id,
                              double duration) {
  WorkerState& worker = workers_[wid];
  const auto it = std::find_if(
      worker.runs.begin(), worker.runs.end(),
      [run_id](const Run& r) { return r.run_id == run_id; });
  PHOENIX_CHECK_MSG(it != worker.runs.end(),
                    "completion event for an evicted run");
  const Run run = *it;
  worker.runs.erase(it);
  JobRuntime& job = jobs_[run.job];
  const sim::SimTime now = engine_.Now();
  if (power_ != nullptr) {
    // Per-SLA-class energy: the exec draw is constant while the machine
    // executes (DVFS is blocked meanwhile) and is split evenly across the
    // runs sharing it — exact for a run alone, approximate under packing.
    // Untenanted work lands in the batch bucket.
    const double share =
        power_->watts(wid) / static_cast<double>(worker.runs.size() + 1);
    const std::uint8_t rank = tenancy::PriorityRank(job.priority);
    class_exec_joules_[rank] += share * duration;
    ++class_tasks_[rank];
  }
  MeterExecEnd(worker);
  StopRun(worker, run);
  worker.estimator.OnServiceComplete(duration);
  if (tenancy_on_ && tenants_.Known(job.tenant)) {
    tenants_.state(job.tenant).usage_seconds += duration;
  }
  Emit(EventType::kTaskComplete, job.id, wid, run.task_index, duration);
  ++job.completed;
  makespan_ = std::max(makespan_, now);
  RefreshHints(worker);
  if (job.Done()) {
    job.completion = now;
    ++jobs_done_;
    if (tenancy_on_) OnTenantJobComplete(job);
    Emit(EventType::kJobComplete, job.id, wid, obs::kNoId,
         now - job.spec->submit_time);
    if (deadline_on_) ScoreDeadline(job);
  } else if (DagManaged(job)) {
    // The finished task's successors may have become ready; dispatch them
    // (the last task to finish has none, so the Done branch skips this).
    ReleaseDagSuccessors(job, run.task_index);
  } else if (job.malleable() && job.malleable_inflight > 0) {
    --job.malleable_inflight;
    TopUpMalleable(job);
  }
  // Sticky batch probing runs on single-slot workers only (a packed machine
  // keeps pulling from its queue while runs execute) and never fetches from
  // a DAG job: TakeNextTaskIndex hands out tasks in index order, released
  // or not.
  if (!packing_on_ && !job.AllPlaced() &&
      job.placement() != trace::PlacementPref::kSpread && Bindable(wid) &&
      !DagManaged(job) && UseStickyBatchProbing(job)) {
    // Hold the control slot and fetch the job's next task directly,
    // skipping the probe queue (Eagle §"divide and stick"). fetching_job
    // marks the in-flight fetch so a machine failure can re-cover the job.
    worker.busy = true;
    worker.fetching_job = job.id;
    RefreshHints(worker);
    Emit(EventType::kStickyFetch, job.id, wid);
    worker.pending_call = rpc_.RoundTrip(
        wid, net::kControllerNode, net::MessageKind::kFetchRequest, one_way(),
        [this, wid, jid = job.id] {
          WorkerState& w = workers_[wid];
          JobRuntime& j = jobs_[jid];
          w.pending_call = 0;
          w.fetching_job = trace::kInvalidJob;
          w.busy = false;
          RefreshHints(w);
          if (!j.AllPlaced()) {
            // A sticky-fetched task never sat in a queue: fresh state.
            NoteRackCommitment(j, cluster_.rack_of(wid));
            StartRun(w, j, TakeNextTaskIndex(j), nullptr);
          } else {
            TryStartNext(w);
          }
        },
        [this, wid] { AbortFetch(wid); });
    return;
  }
  TryStartNext(worker);
}

void SchedulerBase::StopRun(WorkerState& worker, const Run& run) {
  const JobRuntime& job = jobs_[run.job];
  const double remaining = std::max(0.0, run.until - engine_.Now());
  total_busy_time_ -= remaining;
  if (packing_on_) {
    ReleasePackedCapacity(worker, job.demand, 1.0, job.id);
    packed_core_seconds_ -= remaining * job.demand[packing::PackDim::kCores];
  }
}

void SchedulerBase::MeterExecEnd(const WorkerState& worker) {
  // Exec metering closes on the 1 -> 0 run transition only (StartRun opens
  // it on 0 -> 1); concurrent packed runs share one exec draw.
  if (power_ == nullptr || !worker.runs.empty()) return;
  const double watts = power_->OnExecEnd(worker.id, engine_.Now());
  if (watts >= 0) {
    Emit(EventType::kPowerState, obs::kNoId, worker.id, obs::kNoId, watts);
  }
}

bool SchedulerBase::TryStealFor(MachineId thief) {
  // No steal in flight, and bindable: a draining (or not-yet-commissioned)
  // thief must not pull new work in. The gate adds that the thief wants
  // work, which both callers already know.
  if (!StealGate(thief)) return false;
  if (short_probes_queued_ == 0) {
    // No short probe is queued anywhere, so every victim scan below would
    // come up empty. Make the victim draws alone: later decisions depend on
    // the RNG stream they advance.
    for (std::size_t a = 0; a < config_.steal_candidates; ++a) {
      rng_.NextBounded(workers_.size());
    }
    return false;
  }
  const cluster::Machine& self = cluster_.machine(thief);
  for (std::size_t attempt = 0; attempt < config_.steal_candidates; ++attempt) {
    const auto victim_id =
        static_cast<MachineId>(rng_.NextBounded(workers_.size()));
    if (victim_id == thief) continue;
    // Dense-hint fast path: with no short probes queued, the scan below
    // would find nothing (failed machines drain their queues, so they read
    // zero too). The RNG draw above already happened, so skipping the scan
    // leaves the draw sequence — and every downstream decision — intact.
    if (short_probe_counts_[victim_id] == 0) continue;
    WorkerState& victim = workers_[victim_id];
    if (victim.failed) continue;
    for (std::size_t i = 0; i < victim.queue.size(); ++i) {
      const QueueEntry& candidate = victim.queue[i];
      if (candidate.kind != QueueEntry::Kind::kProbe || !candidate.short_class) {
        continue;
      }
      if (!self.Satisfies(jobs_[candidate.job].effective)) continue;
      // Move the probe: one RTT to ask the victim plus one to transfer.
      QueueEntry stolen = RemoveQueueAt(victim, i);
      ++counters_.tasks_stolen;
      WorkerState& worker = workers_[thief];
      worker.steal_inflight = true;
      RefreshHints(worker);
      Emit(EventType::kSteal, stolen.job, thief, obs::kNoId, victim_id);
      SendEntry(thief, stolen, 2 * one_way(), victim_id);
      return true;
    }
  }
  return false;
}

// ---- Multi-resource packing (src/packing) ---------------------------------
//
// Everything below is inert when packing_on_ is false: residual ledgers
// never move, no gang round ever opens, and a worker's run list holds at
// most one run.

void SchedulerBase::ClampDemandToHostable(JobRuntime& job) {
  // The satisfying pool and the capacity-fitting pool must intersect, or
  // the job's entries would bounce between delivery and redispatch forever.
  // Admission already guarantees a non-empty satisfying pool; find its
  // largest member (normalized volume, ties: lowest id) and clamp the
  // demand component-wise to that machine's capacity when nothing in the
  // pool can host the original request.
  // Capacity is static, so the pool is every satisfying machine, failed
  // and inactive ones included. Walked off the cached bitset: an id list
  // per constraint set would be memory no other path of a view-attached
  // run keeps.
  const util::IndexedBitset& pool = cluster_.Satisfying(job.effective);
  const packing::ResourceVector* best = nullptr;
  double best_volume = -1.0;
  for (std::size_t id = pool.NextSetBit(0); id < pool.size();
       id = pool.NextSetBit(id + 1)) {
    const WorkerState& w = workers_[id];
    if (job.demand.FitsIn(w.capacity)) return;  // already hostable
    double volume = 0;
    for (std::size_t d = 0; d < packing::kNumPackDims; ++d) {
      if (max_capacity_.dim(d) > 0) {
        volume += w.capacity.dim(d) / max_capacity_.dim(d);
      }
    }
    if (volume > best_volume) {
      best_volume = volume;
      best = &w.capacity;
    }
  }
  const packing::ResourceVector& target =
      best != nullptr ? *best : clamp_capacity_;
  for (std::size_t d = 0; d < packing::kNumPackDims; ++d) {
    job.demand.v[d] = std::min(job.demand.dim(d), target.dim(d));
  }
  ++counters_.pack_demand_clamped;
}

void SchedulerBase::ClaimPackedCapacity(WorkerState& worker,
                                        const packing::ResourceVector& demand,
                                        double copies, JobId job) {
  worker.residual.AddScaled(demand, -copies);
  NoteResidual(worker);
  if (sinks_.empty()) return;
  for (std::size_t d = 0; d < packing::kNumPackDims; ++d) {
    if (demand.dim(d) <= 0) continue;
    Emit(EventType::kPackClaim, job, worker.id, static_cast<std::uint32_t>(d),
         demand.dim(d) * copies);
  }
}

void SchedulerBase::ReleasePackedCapacity(WorkerState& worker,
                                          const packing::ResourceVector& demand,
                                          double copies, JobId job) {
  worker.residual.AddScaled(demand, copies);
  NoteResidual(worker);
  if (sinks_.empty()) return;
  for (std::size_t d = 0; d < packing::kNumPackDims; ++d) {
    if (demand.dim(d) <= 0) continue;
    Emit(EventType::kPackRelease, job, worker.id,
         static_cast<std::uint32_t>(d), demand.dim(d) * copies);
  }
}

void SchedulerBase::NoteResidual(const WorkerState& worker) {
  const std::uint32_t copies = worker.residual.CopiesOf(mean_demand_);
  if (live_.Test(worker.id)) {
    live_copies_ += copies;
    live_copies_ -= mean_copies_[worker.id];
  }
  mean_copies_[worker.id] = copies;
  double lo_frac = 1.0;
  double hi_frac = 0.0;
  for (std::size_t d = 0; d < packing::kNumPackDims; ++d) {
    if (worker.capacity.dim(d) <= 0) continue;
    const double frac = worker.residual.dim(d) / worker.capacity.dim(d);
    lo_frac = std::min(lo_frac, frac);
    hi_frac = std::max(hi_frac, frac);
  }
  residual_spread_[worker.id] = std::max(0.0, hi_frac - lo_frac);
}

MachineId SchedulerBase::PickBestPacked(
    const std::vector<MachineId>& candidates, JobRuntime& job) {
  PHOENIX_CHECK(!candidates.empty());
  // Stage 1: best packing score among the sampled candidates with residual
  // room right now (lowest id ties, for determinism).
  MachineId best = cluster::kInvalidMachine;
  double best_score = packing::kNoFit;
  for (const MachineId c : candidates) {
    const WorkerState& w = workers_[c];
    if (w.failed || !Bindable(c)) continue;
    const double s =
        packing::PackScore(job.demand, w.residual, w.capacity, config_.packing);
    if (s == packing::kNoFit) continue;
    if (best == cluster::kInvalidMachine || s > best_score ||
        (s == best_score && c < best)) {
      best_score = s;
      best = c;
    }
  }
  if (best != cluster::kInvalidMachine) return best;
  // Stage 2: no residual room anywhere — queue on the least-loaded candidate
  // whose *total capacity* can eventually host the demand (a permanently
  // too-small machine would strand the task).
  double best_load = std::numeric_limits<double>::infinity();
  for (const MachineId c : candidates) {
    const WorkerState& w = workers_[c];
    if (w.failed || !Bindable(c)) continue;
    if (!job.demand.FitsIn(w.capacity)) continue;
    if (w.est_queued_work < best_load ||
        (w.est_queued_work == best_load && c < best)) {
      best_load = w.est_queued_work;
      best = c;
    }
  }
  if (best != cluster::kInvalidMachine) {
    ++counters_.pack_fit_rejections;
    return best;
  }
  // Stage 3: every sampled candidate is too small — deterministic fleet scan
  // for the least-loaded live machine large enough, constraint-satisfying
  // first, any machine second (the demand clamp guarantees one exists while
  // any large machine is up).
  for (int pass = 0; pass < 2; ++pass) {
    for (const WorkerState& w : workers_) {
      if (w.failed || !Bindable(w.id)) continue;
      if (!job.demand.FitsIn(w.capacity)) continue;
      if (pass == 0 && !cluster_.machine(w.id).Satisfies(job.effective)) {
        continue;
      }
      if (w.est_queued_work < best_load) {
        best_load = w.est_queued_work;
        best = w.id;
      }
    }
    if (best != cluster::kInvalidMachine) {
      ++counters_.pack_fit_rejections;
      return best;
    }
  }
  // Every large-enough machine is down: fall back like the dead-pool path
  // (the delivery bounce re-covers the entry once something repairs).
  ++counters_.placement_dead_fallbacks;
  const MachineId fallback = SampleEligible(job.effective);
  PHOENIX_CHECK(fallback != cluster::kInvalidMachine);
  return fallback;
}

double SchedulerBase::PackedSupplyScale() const {
  if (!packing_on_ || live_count_ == 0) return 1.0;
  // The running sums are exact integers, so the quotient is the one an
  // id-order double sum of the live machines' copies gives (each partial
  // sum is an integer below 2^53). Floored: a saturated fleet still
  // advertises a sliver of supply, so the CRV ratios stay finite and
  // comparable across heartbeats.
  return std::max(static_cast<double>(live_copies_) /
                      static_cast<double>(live_count_),
                  0.05);
}

// ---- Gang scheduling: atomic reserve -> commit / abort ---------------------

double SchedulerBase::ScheduleGangRetry(JobRuntime& job) {
  ++job.gang_retries;
  ++counters_.gang_retry_waits;
  const double backoff =
      std::min(config_.packing.gang_retry_backoff *
                   std::exp2(static_cast<double>(job.gang_retries - 1)),
               config_.packing.gang_retry_cap);
  engine_.ScheduleAfter(backoff, [this, id = job.id] { PlaceGang(id); });
  return backoff;
}

void SchedulerBase::PlaceGang(JobId id) {
  JobRuntime& job = jobs_[id];
  if (job.Done()) return;
  PHOENIX_CHECK_MSG(gangs_.count(id) == 0, "gang round already open");
  const std::uint32_t members =
      static_cast<std::uint32_t>(job.num_tasks()) - job.next_unplaced +
      static_cast<std::uint32_t>(job.replay_tasks.size());
  PHOENIX_CHECK(members > 0);
  // Liveness gate: if even an *empty* eligible fleet cannot host `members`
  // concurrent copies, no amount of backoff will ever place this gang —
  // degrade it to the normal (non-atomic) placement path instead of
  // retrying forever. Evaluated per attempt so a fleet shrunk by failures
  // degrades rather than stalls; the trade is availability over atomicity.
  const std::vector<std::uint32_t>& pool = EligibleIds(job.effective);
  std::uint64_t potential = 0;
  for (const std::uint32_t m : pool) {
    const WorkerState& w = workers_[m];
    if (w.failed) continue;
    potential += w.capacity.CopiesOf(job.demand);
    if (potential >= members) break;
  }
  if (potential < members) {
    ++counters_.gangs_degraded;
    if (UsesDistributedPlane(job)) {
      PlaceDistributed(job);
    } else {
      PlaceCentralized(job);
    }
    return;
  }
  // Reserve member-by-member, claiming as we go: each pick sees the residual
  // left by the previous members, so one machine hosts several members only
  // when its vector truly admits them. Deterministic scan of the eligible
  // pool (no sampling): gang placement is rare and all-or-nothing, so it
  // pays for a full view instead of perturbing the shared RNG stream. The
  // pool is scored once; each member is the heap top (best score, then
  // lowest id), and only the machine it claimed is re-scored, since no
  // other residual moves during the round.
  struct Scored {
    double score;
    MachineId id;
  };
  const auto ranks_below = [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.id > b.id;
  };
  std::vector<Scored> heap;
  for (const std::uint32_t m : pool) {
    const WorkerState& w = workers_[m];
    if (w.failed) continue;
    const double s = packing::PackScore(job.demand, w.residual, w.capacity,
                                        config_.packing);
    if (s != packing::kNoFit) heap.push_back({s, m});
  }
  std::make_heap(heap.begin(), heap.end(), ranks_below);
  std::vector<MachineId> targets;
  targets.reserve(members);
  bool ok = true;
  for (std::uint32_t m = 0; m < members; ++m) {
    if (heap.empty()) {
      ok = false;
      break;
    }
    std::pop_heap(heap.begin(), heap.end(), ranks_below);
    const MachineId best = heap.back().id;
    heap.pop_back();
    WorkerState& w = workers_[best];
    ClaimPackedCapacity(w, job.demand, 1.0, id);
    targets.push_back(best);
    const double s = packing::PackScore(job.demand, w.residual, w.capacity,
                                        config_.packing);
    if (s != packing::kNoFit) {
      heap.push_back({s, best});
      std::push_heap(heap.begin(), heap.end(), ranks_below);
    }
  }
  if (!ok) {
    // Not enough simultaneous capacity: release the partial claims and retry
    // after a capped exponential backoff. No kGangReserve was emitted, so no
    // abort event either (the auditor pairs aborts with open rounds).
    for (const MachineId t : targets) {
      ReleasePackedCapacity(workers_[t], job.demand, 1.0, id);
    }
    ScheduleGangRetry(job);
    return;
  }
  GangState& g = gangs_[id];
  g.expected = members;
  for (const MachineId t : targets) {
    bool merged = false;
    for (auto& r : g.reserved) {
      if (r.first == t) {
        ++r.second;
        merged = true;
        break;
      }
    }
    if (!merged) g.reserved.emplace_back(t, 1);
  }
  for (const auto& [wid, count] : g.reserved) {
    Emit(EventType::kGangReserve, id, wid, count, config_.packing.gang_hold);
  }
  // Bounded hold: if the round is still open when this fires (members lost
  // in a chaotic fabric), it is failed and aborts at closure. Close paths
  // cancel blindly (Cancel on a fired id is a no-op).
  g.hold_event =
      engine_.ScheduleAfter(config_.packing.gang_hold, [this, id] {
        auto it = gangs_.find(id);
        if (it == gangs_.end()) return;  // round already closed
        it->second.failed = true;
      });
  // Member entries transit the fabric like any bind; DeliverEntry diverts
  // them into the staging area while the round is open.
  for (const MachineId t : targets) {
    const QueueEntry entry =
        MakeEntry(job, QueueEntry::Kind::kBoundTask, TakeNextTaskIndex(job));
    NoteRackCommitment(job, cluster_.rack_of(t));
    SendEntry(t, entry, one_way());
  }
}

void SchedulerBase::DeliverGangMember(MachineId target, QueueEntry entry) {
  auto it = gangs_.find(entry.job);
  PHOENIX_CHECK(it != gangs_.end());
  GangState& g = it->second;
  WorkerState& w = workers_[target];
  ++g.closed;
  if (w.failed || !Bindable(target)) {
    // The member's machine left the fleet mid-round (a failure sweep already
    // released its reservation; a drain keeps it until the abort). Reclaim
    // the index for the retry round and fail the gang.
    jobs_[entry.job].replay_tasks.push_back(entry.task_index);
    g.failed = true;
  } else {
    g.staged.emplace_back(target, entry);
  }
  CloseGangMember(entry.job);
}

void SchedulerBase::CloseGangMember(JobId id) {
  auto it = gangs_.find(id);
  PHOENIX_CHECK(it != gangs_.end());
  const GangState& g = it->second;
  if (g.closed < g.expected) return;
  if (g.failed) {
    AbortGang(id);
  } else {
    CommitGang(id);
  }
}

void SchedulerBase::CommitGang(JobId id) {
  auto node = gangs_.extract(id);
  GangState& g = node.mapped();
  engine_.Cancel(g.hold_event);
  JobRuntime& job = jobs_[id];
  const double wait = engine_.Now() - job.gang_arrival;
  gang_wait_sum_ += wait;
  ++counters_.gang_commits;
  Emit(EventType::kGangCommit, id, obs::kNoId, obs::kNoId, wait);
  // Atomic co-start: every member begins now, consuming the capacity its
  // reservation already claimed.
  for (auto& [wid, entry] : g.staged) {
    StartRun(workers_[wid], job, entry.task_index, &entry,
             /*from_reserve=*/true);
  }
}

void SchedulerBase::AbortGang(JobId id) {
  auto node = gangs_.extract(id);
  GangState& g = node.mapped();
  engine_.Cancel(g.hold_event);
  JobRuntime& job = jobs_[id];
  // Release what is still reserved (machines lost mid-round were already
  // released by their eviction sweep and removed from the list) and reclaim
  // the staged members' indices for the retry round.
  for (const auto& [wid, count] : g.reserved) {
    ReleasePackedCapacity(workers_[wid], job.demand,
                          static_cast<double>(count), id);
  }
  for (const auto& [wid, entry] : g.staged) {
    job.replay_tasks.push_back(entry.task_index);
  }
  ++counters_.gang_aborts;
  const double backoff = ScheduleGangRetry(job);
  Emit(EventType::kGangAbort, id, obs::kNoId, obs::kNoId, backoff);
}

void SchedulerBase::EvictGangReservations(WorkerState& worker) {
  if (gangs_.empty()) return;
  for (auto& [id, g] : gangs_) {
    for (std::size_t i = 0; i < g.reserved.size(); ++i) {
      if (g.reserved[i].first != worker.id) continue;
      ReleasePackedCapacity(worker, jobs_[id].demand,
                            static_cast<double>(g.reserved[i].second), id);
      g.reserved.erase(g.reserved.begin() + static_cast<std::ptrdiff_t>(i));
      g.failed = true;
      break;
    }
    for (std::size_t i = g.staged.size(); i-- > 0;) {
      if (g.staged[i].first != worker.id) continue;
      // Already counted as closed when it staged; reclaim the index only.
      jobs_[id].replay_tasks.push_back(g.staged[i].second.task_index);
      g.staged.erase(g.staged.begin() + static_cast<std::ptrdiff_t>(i));
      g.failed = true;
    }
    // An open round always has closed < expected (full closure commits or
    // aborts synchronously), so the in-flight members' delivery or give-up
    // callbacks are guaranteed to close — and now abort — the round.
  }
}

// ---- Malleable jobs: width from the elastic supply signal ------------------

std::uint32_t SchedulerBase::PackedFreeCopies(const JobRuntime& job,
                                              std::uint32_t enough) const {
  std::uint64_t total = 0;
  for (const std::uint32_t m : EligibleIds(job.effective)) {
    const WorkerState& w = workers_[m];
    if (w.failed) continue;
    total += w.residual.CopiesOf(job.demand);
    if (total >= enough) return enough;
  }
  return static_cast<std::uint32_t>(total);
}

void SchedulerBase::PlaceMalleable(JobId id) {
  JobRuntime& job = jobs_[id];
  ++counters_.malleable_jobs;
  malleable_active_.push_back(id);
  const auto max_width = static_cast<std::uint32_t>(job.num_tasks());
  // Counting past both bounds below cannot change the width or the floor
  // hit, so the count stops at the larger one.
  std::uint32_t width =
      PackedFreeCopies(job, std::max(max_width, job.min_parallel()));
  if (width < job.min_parallel()) {
    width = job.min_parallel();
    ++counters_.malleable_min_hits;
  }
  width = std::min(width, max_width);
  job.malleable_width = width;
  Emit(EventType::kMalleableWidth, id, obs::kNoId, obs::kNoId, width);
  TopUpMalleable(job);
}

void SchedulerBase::TopUpMalleable(JobRuntime& job) {
  if (job.Done()) return;
  while (!job.AllPlaced() && job.malleable_inflight < job.malleable_width) {
    BindTask(job, TakeNextTaskIndex(job));
    ++job.malleable_inflight;
  }
}

void SchedulerBase::RefreshMalleableWidths() {
  if (malleable_active_.empty()) return;
  std::size_t keep = 0;
  for (const JobId id : malleable_active_) {
    JobRuntime& job = jobs_[id];
    if (job.Done()) continue;  // drops out of the active list
    malleable_active_[keep++] = id;
    const auto max_width = static_cast<std::uint32_t>(job.num_tasks());
    // Expand into free supply; shrink passively when it evaporates (inflight
    // work is never killed — the top-up loop just stops issuing). As at
    // placement, the count stops where it can no longer move the width
    // (inflight never exceeds max_width: top-ups stop at the width).
    const std::uint32_t enough = std::max(max_width, job.min_parallel());
    std::uint32_t width =
        job.malleable_inflight +
        PackedFreeCopies(job, enough - job.malleable_inflight);
    if (width < job.min_parallel()) {
      width = job.min_parallel();
      ++counters_.malleable_min_hits;
    }
    width = std::min(width, max_width);
    if (width == job.malleable_width) continue;
    if (width > job.malleable_width) {
      ++counters_.malleable_expands;
    } else {
      ++counters_.malleable_shrinks;
    }
    job.malleable_width = width;
    Emit(EventType::kMalleableWidth, id, obs::kNoId, obs::kNoId, width);
    TopUpMalleable(job);
  }
  malleable_active_.resize(keep);
}

// ---- DAG workflows and deadline scheduling (src/workflow) ------------------
//
// Everything below is unreachable when dag_on_ / deadline_on_ are false:
// dag_states_ stays empty, no deadline is ever tracked, and every dispatch
// path above remains byte-identical to the pre-workflow scheduler.

void SchedulerBase::PlaceDagJob(JobRuntime& job) {
  dag_states_[job.id] = workflow::BuildDagState(*job.spec);
  ++counters_.dag_jobs;
  const workflow::DagState& state = *dag_states_[job.id];
  std::vector<std::uint32_t> ready;
  for (std::uint32_t t = 0; t < job.num_tasks(); ++t) {
    if (state.indegree[t] == 0) ready.push_back(t);
  }
  DispatchReadyDagTasks(job, ready);
}

void SchedulerBase::DispatchReadyDagTasks(JobRuntime& job,
                                          std::vector<std::uint32_t>& ready) {
  PHOENIX_CHECK_MSG(!ready.empty(), "DAG job with no ready task");
  const workflow::DagState& state = *dag_states_[job.id];
  // Critical-path priority: the task with the longest remaining downstream
  // work dispatches first (ascending index on ties, for determinism).
  std::sort(ready.begin(), ready.end(),
            [&state](std::uint32_t a, std::uint32_t b) {
              if (state.downstream[a] != state.downstream[b]) {
                return state.downstream[a] > state.downstream[b];
              }
              return a < b;
            });
  for (const std::uint32_t t : ready) {
    Emit(EventType::kDagReady, job.id, obs::kNoId, t, state.downstream[t]);
    PlaceDagTask(job, t);
  }
}

void SchedulerBase::PlaceDagTask(JobRuntime& job, std::uint32_t task_index) {
  // DAG tasks always bind early, whatever the job's duration class: a
  // late-binding probe fetches the job's next task in index order, which
  // could hand out a task whose predecessors have not finished.
  workflow::DagState& state = *dag_states_[job.id];
  ++state.released;
  // next_unplaced doubles as the release counter so AllPlaced() keeps its
  // meaning (every task dispatched, no replay outstanding).
  ++job.next_unplaced;
  ++counters_.dag_tasks_released;
  Emit(EventType::kDagRelease, job.id, obs::kNoId, task_index);
  BindTask(job, task_index);
}

void SchedulerBase::ReleaseDagSuccessors(JobRuntime& job,
                                         std::uint32_t task_index) {
  workflow::DagState& state = *dag_states_[job.id];
  std::vector<std::uint32_t> ready;
  for (std::uint32_t e = state.succ_offsets[task_index];
       e < state.succ_offsets[task_index + 1]; ++e) {
    const std::uint32_t s = state.succ[e];
    PHOENIX_CHECK_MSG(state.indegree[s] > 0,
                      "DAG predecessor finished more times than its edges");
    if (--state.indegree[s] == 0) ready.push_back(s);
  }
  if (!ready.empty()) DispatchReadyDagTasks(job, ready);
}

void SchedulerBase::AssignDeadline(JobRuntime& job) {
  // SLA class: the trace's explicit tag (Google-trace priority bands) wins;
  // untagged jobs fall back to their post-admission tenancy class rank.
  job.sla_rank = job.spec->sla_class != trace::kNoSlaClass
                     ? job.spec->sla_class
                     : tenancy::PriorityRank(job.priority);
  PHOENIX_CHECK_MSG(job.sla_rank < 3, "SLA class rank out of range");
  const double cp = workflow::CriticalPathLength(*job.spec);
  job.deadline = job.spec->submit_time +
                 config_.workflow.deadline_multiplier[job.sla_rank] * cp;
  job.deadline_tracked = true;
  ++counters_.deadline_jobs;
}

void SchedulerBase::ScoreDeadline(JobRuntime& job) {
  if (!job.deadline_tracked) return;
  ++class_deadline_jobs_[job.sla_rank];
  if (job.completion <= job.deadline + 1e-9) {
    ++class_deadline_attained_[job.sla_rank];
  } else {
    ++counters_.deadline_misses;
    Emit(EventType::kDeadlineMiss, job.id, obs::kNoId, obs::kNoId,
         job.completion - job.deadline);
  }
}

std::size_t SchedulerBase::PromoteByDeadline(const WorkerState& worker,
                                             std::size_t chosen) {
  const QueueEntry& pick = worker.queue[chosen];
  // Never override the starvation guard's selection.
  if (pick.bypass_count >= config_.slack_threshold) return chosen;
  const auto deadline_of = [this](const QueueEntry& e) {
    const JobRuntime& j = jobs_[e.job];
    return j.deadline_tracked ? j.deadline
                              : std::numeric_limits<double>::infinity();
  };
  double best_deadline = deadline_of(pick);
  std::size_t best = chosen;
  for (std::size_t i = 0; i < worker.queue.size(); ++i) {
    if (i == chosen) continue;
    const double d = deadline_of(worker.queue[i]);
    if (d < best_deadline) {  // first strictly-earlier deadline wins
      best_deadline = d;
      best = i;
    }
  }
  return best;
}

metrics::SimReport SchedulerBase::BuildReport() const {
  PHOENIX_CHECK_MSG(jobs_done_ == jobs_.size(),
                    "BuildReport called before every job completed");
  metrics::SimReport report;
  report.scheduler_name = name();
  report.trace_name = trace_name_;
  report.num_workers = workers_.size();
  report.counters = counters_;
  report.counters.net_messages_sent = fabric_.stats().sent;
  report.counters.net_messages_dropped =
      fabric_.stats().dropped + fabric_.stats().partition_drops;
  report.counters.net_messages_duplicated = fabric_.stats().duplicated;
  report.counters.net_messages_expired = fabric_.stats().expired;
  report.counters.rpc_retries = rpc_.stats().retries;
  report.counters.rpc_failures = rpc_.stats().failures;
  if (federation_ != nullptr) {
    const federation::FederationPlane::Stats& fs = federation_->stats();
    report.counters.fed_gossip_published = fs.digests_published;
    report.counters.fed_gossip_applied = fs.digests_applied;
    report.counters.fed_gossip_stale_dropped = fs.digests_stale_dropped;
    report.counters.fed_offloads_blocked_stale = fs.offloads_blocked_stale;
  }
  report.total_busy_time = total_busy_time_;
  report.makespan = makespan_;
  if (membership_ != nullptr) {
    // Close the in-service integral at the horizon without mutating state
    // (BuildReport is const and may be called more than once).
    const double horizon = std::max<double>(makespan_, last_membership_change_);
    report.active_machine_seconds =
        in_service_seconds_ +
        static_cast<double>(membership_->in_service_count()) *
            (horizon - last_membership_change_);
  }
  if (power_ != nullptr) {
    const double horizon = std::max<double>(makespan_, last_membership_change_);
    report.power_enabled = true;
    report.total_joules = power_->TotalJoules(horizon);
    std::uint64_t tasks_completed = 0;
    double response_sum = 0;
    for (const JobRuntime& job : jobs_) {
      tasks_completed += job.completed;
      response_sum += job.completion - job.spec->submit_time;
    }
    report.energy_per_task =
        tasks_completed > 0
            ? report.total_joules / static_cast<double>(tasks_completed)
            : 0;
    const double mean_response =
        jobs_.empty() ? 0 : response_sum / static_cast<double>(jobs_.size());
    report.energy_delay_product = report.total_joules * mean_response;
    report.sleep_machine_seconds = power_->SleepMachineSeconds(horizon);
    report.class_exec_joules = class_exec_joules_;
    report.class_tasks = class_tasks_;
  }
  if (packing_on_) {
    report.packing_enabled = true;
    const double core_capacity =
        fleet_capacity_[packing::PackDim::kCores] * makespan_;
    report.packing_efficiency =
        core_capacity > 0 ? packed_core_seconds_ / core_capacity : 0;
    report.fragmentation_time_avg =
        frag_samples_ > 0 ? frag_sum_ / static_cast<double>(frag_samples_) : 0;
    report.gang_wait_mean =
        counters_.gang_commits > 0
            ? gang_wait_sum_ / static_cast<double>(counters_.gang_commits)
            : 0;
  }
  report.dag_enabled = dag_on_;
  if (deadline_on_) {
    report.deadline_enabled = true;
    report.class_deadline_jobs = class_deadline_jobs_;
    report.class_deadline_attained = class_deadline_attained_;
  }
  report.jobs.reserve(jobs_.size());
  for (const JobRuntime& job : jobs_) {
    metrics::JobOutcome out;
    out.id = job.id;
    out.submit = job.spec->submit_time;
    out.completion = job.completion;
    out.num_tasks = job.num_tasks();
    out.queuing_delay =
        job.sum_task_wait /
        static_cast<double>(std::max<std::uint32_t>(job.task_starts, 1));
    out.max_task_wait = job.max_task_wait;
    out.short_class = job.short_class;
    out.constrained = job.constrained;
    out.placement = job.placement();
    out.racks_used = job.used_racks.Count();
    out.tenant = job.tenant;
    out.priority = tenancy::PriorityRank(job.priority);
    report.jobs.push_back(out);
  }
  if (tenants_.enabled()) {
    std::vector<std::vector<double>> waits(tenants_.size());
    for (const JobRuntime& job : jobs_) {
      if (!tenants_.Known(job.tenant)) continue;
      waits[job.tenant].push_back(
          job.sum_task_wait /
          static_cast<double>(std::max<std::uint32_t>(job.task_starts, 1)));
    }
    report.tenants.reserve(tenants_.size());
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      const auto id = static_cast<tenancy::TenantId>(t);
      const tenancy::TenantSpec& spec = tenants_.spec(id);
      const tenancy::TenantState& state = tenants_.state(id);
      metrics::TenantOutcome out;
      out.id = id;
      out.name = spec.name;
      out.priority = tenancy::PriorityRank(spec.priority);
      out.quota_share = spec.quota_share;
      out.slo_target = spec.slo_target;
      out.jobs = state.jobs;
      out.admits = state.admits;
      out.downgrades = state.downgrades;
      out.rejects = state.rejects;
      out.slo_jobs = state.slo_jobs;
      out.slo_attained = state.slo_attained;
      out.slo_at_risk = state.slo_at_risk;
      out.preemptions_issued = state.preemptions_issued;
      out.preemptions_suffered = state.preemptions_suffered;
      out.usage_seconds = state.usage_seconds;
      out.peak_quota_fraction = state.peak_quota_fraction;
      std::vector<double>& w = waits[t];
      if (!w.empty()) {
        double sum = 0;
        for (const double v : w) sum += v;
        out.mean_queuing = sum / static_cast<double>(w.size());
        out.p90_queuing = metrics::Percentile(w, 90);
      }
      report.tenants.push_back(std::move(out));
    }
    report.tenant_fairness_jain = metrics::TenantUsageJain(report);
  }
  report.CheckInvariants();
  return report;
}

}  // namespace phoenix::sched
