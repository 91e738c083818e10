#include "obs/audit.h"

#include <algorithm>
#include <cmath>

#include "util/format.h"

namespace phoenix::obs {

namespace {
// Keep the violation list bounded: one broken invariant typically fires on
// every subsequent event, and the first few messages carry the diagnosis.
constexpr std::size_t kMaxViolations = 64;

// Mirror of cluster::MachineLifecycle, kept local so the auditor depends
// only on the event stream (obs must not link against cluster).
enum : std::uint8_t {
  kLifeActive = 0,  // default: a machine never mentioned is in service
  kLifeParked,
  kLifeProvisioning,
  kLifeDraining,
  kLifeRetired,
};

const char* LifeName(std::uint8_t state) {
  switch (state) {
    case kLifeActive: return "active";
    case kLifeParked: return "parked";
    case kLifeProvisioning: return "provisioning";
    case kLifeDraining: return "draining";
    case kLifeRetired: return "retired";
  }
  return "?";
}
}  // namespace

InvariantAuditor::JobStats& InvariantAuditor::JobFor(std::uint32_t id) {
  if (id >= jobs_.size()) jobs_.resize(id + 1);
  return jobs_[id];
}

std::uint8_t& InvariantAuditor::LifecycleFor(std::uint32_t machine) {
  if (machine >= machine_lifecycle_.size()) {
    machine_lifecycle_.resize(machine + 1, kLifeActive);
  }
  return machine_lifecycle_[machine];
}

void InvariantAuditor::OnLifecycleEvent(const Event& event) {
  if (event.machine == kNoId) {
    Violate("elastic lifecycle event without a machine id");
    return;
  }
  std::uint8_t& state = LifecycleFor(event.machine);
  const auto illegal = [&] {
    Violate(util::StrFormat("machine %u: illegal %s while %s at t=%.6f",
                            event.machine, EventTypeName(event.type),
                            LifeName(state), event.time));
  };
  switch (event.type) {
    case EventType::kMachinePark:
      // The run-start declaration of a not-yet-leased machine, or a power
      // park: an idle active machine goes to deep sleep, a drained machine
      // sleeps instead of retiring. Never legal from parked/provisioning/
      // retired (double park, or parking a machine outside the fleet).
      if (state != kLifeActive && state != kLifeDraining) illegal();
      state = kLifeParked;
      return;
    case EventType::kMachineProvision:
      if (state != kLifeParked && state != kLifeRetired) illegal();
      state = kLifeProvisioning;
      return;
    case EventType::kMachineCommission:
      if (state != kLifeProvisioning) illegal();
      state = kLifeActive;
      return;
    case EventType::kMachineDrain:
      if (state != kLifeActive) illegal();
      state = kLifeDraining;
      return;
    case EventType::kMachineRetire:
      if (state != kLifeDraining) illegal();
      state = kLifeRetired;
      return;
    case EventType::kMachineReclaim:
      // Informational: fires against the still-active lease, just before
      // its drain.
      if (state != kLifeActive) illegal();
      return;
    default:
      return;
  }
}

void InvariantAuditor::Violate(std::string message) {
  if (violations_.size() < kMaxViolations) {
    violations_.push_back(std::move(message));
  }
}

void InvariantAuditor::OnEvent(const Event& event) {
  ++events_seen_;
  switch (event.type) {
    case EventType::kJobArrival: {
      JobStats& job = JobFor(event.job);
      if (job.arrived) {
        Violate(util::StrFormat("job %u arrived twice", event.job));
      }
      job.arrived = true;
      job.tasks = static_cast<std::uint64_t>(event.value);
      return;
    }
    case EventType::kJobComplete: {
      JobStats& job = JobFor(event.job);
      if (job.done) {
        Violate(util::StrFormat("job %u completed twice", event.job));
      }
      job.done = true;
      if (job.completes != job.tasks) {
        Violate(util::StrFormat(
            "job %u declared complete with %llu/%llu task completions",
            event.job, static_cast<unsigned long long>(job.completes),
            static_cast<unsigned long long>(job.tasks)));
      }
      return;
    }
    case EventType::kProbeSend:
      ++JobFor(event.job).probes_sent;
      return;
    case EventType::kProbeResolve:
    case EventType::kProbeCancel:
    case EventType::kProbeDecline:
    case EventType::kProbeBounce: {
      JobStats& job = JobFor(event.job);
      if (event.type == EventType::kProbeResolve &&
          event.machine != kNoId &&
          LifecycleFor(event.machine) != kLifeActive) {
        // Resolving a probe starts fresh work: only active machines may.
        Violate(util::StrFormat(
            "machine %u resolved a probe while %s at t=%.6f", event.machine,
            LifeName(LifecycleFor(event.machine)), event.time));
      }
      if (event.type == EventType::kProbeResolve) ++job.probes_resolved;
      if (event.type == EventType::kProbeCancel) ++job.probes_cancelled;
      if (event.type == EventType::kProbeDecline) ++job.probes_declined;
      if (event.type == EventType::kProbeBounce) ++job.probes_bounced;
      if (job.OutstandingProbes() < 0) {
        Violate(util::StrFormat(
            "job %u probe balance went negative at t=%.6f (%s)", event.job,
            event.time, EventTypeName(event.type)));
      }
      return;
    }
    case EventType::kTaskStart: {
      // Draining is allowed: work bound before the drain may still start
      // once the slot frees. Outside the fleet entirely is a violation.
      const std::uint8_t life = event.machine == kNoId
                                    ? static_cast<std::uint8_t>(kLifeActive)
                                    : LifecycleFor(event.machine);
      if (life == kLifeParked || life == kLifeProvisioning ||
          life == kLifeRetired) {
        Violate(util::StrFormat(
            "job %u task bound to non-active machine %u (%s) at t=%.6f",
            event.job, event.machine, LifeName(life), event.time));
      }
      // Gang atomicity: members start only after the atomic commit closes
      // the round, never while a reservation is still open.
      auto gang = gang_rounds_.find(event.job);
      if (gang != gang_rounds_.end() && gang->second.open) {
        Violate(util::StrFormat(
            "gang job %u task %u started inside an open reservation round "
            "at t=%.6f (must wait for the commit)",
            event.job, event.task, event.time));
      }
      // DAG precedence: a task of a DAG job (one the stream marked ready
      // via kDagReady) may start only after its ready mark — i.e. after
      // every predecessor finished. Failure replays restart legally: the
      // mark persists across the kill.
      if (!dag_jobs_.empty() && event.task != kNoId &&
          dag_jobs_.find(event.job) != dag_jobs_.end() &&
          dag_ready_set_.count(
              (static_cast<std::uint64_t>(event.job) << 32) | event.task) ==
              0) {
        Violate(util::StrFormat(
            "DAG job %u task %u started before its predecessors finished "
            "at t=%.6f (no kDagReady)",
            event.job, event.task, event.time));
      }
      ++JobFor(event.job).starts;
      return;
    }
    case EventType::kTaskComplete: {
      JobStats& job = JobFor(event.job);
      ++job.completes;
      if (job.completes > job.starts) {
        Violate(util::StrFormat("job %u completed more tasks than it started",
                             event.job));
      }
      if (job.arrived && job.completes > job.tasks + job.kills) {
        Violate(util::StrFormat("job %u over-completed: %llu completions for "
                             "%llu tasks",
                             event.job,
                             static_cast<unsigned long long>(job.completes),
                             static_cast<unsigned long long>(job.tasks)));
      }
      return;
    }
    case EventType::kTaskKill:
      ++JobFor(event.job).kills;
      return;
    case EventType::kMachineFail:
    case EventType::kMachineRepair: {
      if (event.machine == kNoId) {
        Violate("machine lifecycle event without a machine id");
        return;
      }
      if (event.machine >= machine_failed_.size()) {
        machine_failed_.resize(event.machine + 1, false);
      }
      const bool down = machine_failed_[event.machine];
      if (event.type == EventType::kMachineFail && down) {
        Violate(util::StrFormat("machine %u failed while already down",
                             event.machine));
      }
      if (event.type == EventType::kMachineRepair && !down) {
        Violate(util::StrFormat("machine %u repaired while up", event.machine));
      }
      machine_failed_[event.machine] =
          event.type == EventType::kMachineFail;
      return;
    }
    case EventType::kMsgSend: {
      ++messages_sent_;
      const auto id = static_cast<std::uint64_t>(event.value);
      if (!inflight_messages_.Insert(id)) {
        Violate(util::StrFormat("message %llu sent twice at t=%.6f",
                                static_cast<unsigned long long>(id),
                                event.time));
      }
      return;
    }
    case EventType::kSteal:
      if (event.machine != kNoId &&
          LifecycleFor(event.machine) != kLifeActive) {
        Violate(util::StrFormat("machine %u stole work while %s at t=%.6f",
                                event.machine,
                                LifeName(LifecycleFor(event.machine)),
                                event.time));
      }
      return;
    case EventType::kMachinePark:
    case EventType::kMachineProvision:
    case EventType::kMachineCommission:
    case EventType::kMachineDrain:
    case EventType::kMachineRetire:
    case EventType::kMachineReclaim:
      OnLifecycleEvent(event);
      return;
    case EventType::kPreemptIssue: {
      // A preemption kills the running task; the start/completion balance
      // treats it like a failure kill, and conservation demands a matching
      // requeue for the same (job, task) before the run ends.
      //
      // Conservation also covers the machine lifecycle: a draining or
      // retired machine's slot work is recovered by the drain/retire sweep,
      // so a preemption there would put the victim on two recovery paths
      // (requeue + sweep) and double-dispatch it.
      if (event.machine != kNoId &&
          LifecycleFor(event.machine) != kLifeActive) {
        Violate(util::StrFormat(
            "job %u task %u preempted on machine %u while %s at t=%.6f",
            event.job, event.task, event.machine,
            LifeName(LifecycleFor(event.machine)), event.time));
      }
      ++preemptions_issued_;
      ++JobFor(event.job).kills;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(event.job) << 32) | event.task;
      if (!outstanding_preemptions_.insert(key).second) {
        Violate(util::StrFormat(
            "job %u task %u preempted again before its requeue at t=%.6f",
            event.job, event.task, event.time));
      }
      return;
    }
    case EventType::kPreemptRequeue: {
      ++preemptions_requeued_;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(event.job) << 32) | event.task;
      if (outstanding_preemptions_.erase(key) == 0) {
        Violate(util::StrFormat(
            "job %u task %u requeued at t=%.6f without a matching preempt",
            event.job, event.task, event.time));
      }
      return;
    }
    case EventType::kTenantAdmit:
    case EventType::kTenantDowngrade:
      // Quota non-violation: the payload is the tenant's post-charge
      // committed/budget fraction (0 when the tenant has no quota).
      if (event.value < -1e-9 || event.value > 1.0 + 1e-9) {
        Violate(util::StrFormat(
            "tenant %u admitted past its quota at t=%.6f "
            "(committed fraction %.6f)",
            event.machine, event.time, event.value));
      }
      return;
    case EventType::kFedBindSend: {
      ++fed_binds_sent_;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(event.job) << 32) | event.task;
      if (!outstanding_fed_binds_.insert(key).second) {
        Violate(util::StrFormat(
            "job %u task %u cross-shard bind re-sent before its "
            "accept/reject at t=%.6f",
            event.job, event.task, event.time));
      }
      return;
    }
    case EventType::kFedBindAccept:
    case EventType::kFedBindReject: {
      ++fed_binds_closed_;
      if (event.type == EventType::kFedBindAccept && event.machine != kNoId &&
          LifecycleFor(event.machine) != kLifeActive) {
        // An accepted cross-shard bind starts fresh work on the target:
        // only an active machine may take it (a draining/retired target
        // must reject into the redispatch path instead).
        Violate(util::StrFormat(
            "machine %u accepted a cross-shard bind while %s at t=%.6f",
            event.machine, LifeName(LifecycleFor(event.machine)),
            event.time));
      }
      const std::uint64_t key =
          (static_cast<std::uint64_t>(event.job) << 32) | event.task;
      if (outstanding_fed_binds_.erase(key) == 0) {
        Violate(util::StrFormat(
            "job %u task %u cross-shard bind %s at t=%.6f without a "
            "matching send",
            event.job, event.task, EventTypeName(event.type), event.time));
      }
      return;
    }
    case EventType::kGossipApply: {
      ++gossip_applies_;
      // machine = receiver shard, task = origin shard, value = version.
      const std::uint64_t key =
          (static_cast<std::uint64_t>(event.machine) << 32) | event.task;
      const auto version = static_cast<std::uint64_t>(event.value);
      auto [it, fresh] = gossip_versions_.try_emplace(key, version);
      if (!fresh) {
        if (version <= it->second) {
          Violate(util::StrFormat(
              "shard %u applied origin %u digest version %llu after %llu "
              "at t=%.6f (stale digest must be dropped, not applied)",
              event.machine, event.task,
              static_cast<unsigned long long>(version),
              static_cast<unsigned long long>(it->second), event.time));
        }
        it->second = version;
      }
      return;
    }
    case EventType::kMsgDeliver:
    case EventType::kMsgDrop:
    case EventType::kMsgExpire: {
      ++messages_terminated_;
      const auto id = static_cast<std::uint64_t>(event.value);
      if (!inflight_messages_.Erase(id)) {
        Violate(util::StrFormat(
            "message %llu terminated (%s) at t=%.6f without a matching send",
            static_cast<unsigned long long>(id), EventTypeName(event.type),
            event.time));
      }
      return;
    }
    case EventType::kPowerState: {
      ++power_events_seen_;
      if (event.machine == kNoId) {
        Violate("power state event without a machine id");
        return;
      }
      if (event.value < 0) {
        Violate(util::StrFormat("machine %u declared negative draw %.6f W",
                                event.machine, event.value));
      }
      if (event.machine >= power_channels_.size()) {
        power_channels_.resize(event.machine + 1);
      }
      PowerChannel& ch = power_channels_[event.machine];
      if (ch.seen && event.time < ch.last) {
        Violate(util::StrFormat(
            "machine %u power state moved backwards in time (%.6f < %.6f)",
            event.machine, event.time, ch.last));
        return;
      }
      if (ch.seen) ch.joules += ch.watts * (event.time - ch.last);
      ch.seen = true;
      ch.last = event.time;
      ch.watts = event.value;
      return;
    }
    case EventType::kPowerPark:
      // Park/wake decision legality mirrors the lifecycle rules: the park
      // decision precedes its kMachinePark, the wake its kMachineProvision.
      if (event.machine == kNoId ||
          (LifecycleFor(event.machine) != kLifeActive &&
           LifecycleFor(event.machine) != kLifeDraining)) {
        Violate(util::StrFormat(
            "power park of machine %u while %s at t=%.6f", event.machine,
            event.machine == kNoId ? "?"
                                   : LifeName(LifecycleFor(event.machine)),
            event.time));
      }
      return;
    case EventType::kPowerWake:
      if (event.machine == kNoId ||
          LifecycleFor(event.machine) != kLifeParked) {
        Violate(util::StrFormat(
            "power wake of machine %u while %s at t=%.6f", event.machine,
            event.machine == kNoId ? "?"
                                   : LifeName(LifecycleFor(event.machine)),
            event.time));
      }
      return;
    case EventType::kPowerDvfs:
      // DVFS only retunes machines taking new work; a sleeping or
      // out-of-fleet machine has no P-state to step.
      if (event.machine == kNoId ||
          LifecycleFor(event.machine) != kLifeActive) {
        Violate(util::StrFormat(
            "DVFS step on machine %u while %s at t=%.6f", event.machine,
            event.machine == kNoId ? "?"
                                   : LifeName(LifecycleFor(event.machine)),
            event.time));
      }
      return;
    case EventType::kPackCapacity: {
      // machine + dimension (in the task field) declare one ledger cell.
      if (event.machine == kNoId || event.task == kNoId) {
        Violate("pack capacity event without a machine/dimension");
        return;
      }
      const std::uint64_t key =
          (static_cast<std::uint64_t>(event.machine) << 3) | event.task;
      PackLedger& ledger = pack_ledgers_[key];
      if (ledger.declared) {
        Violate(util::StrFormat(
            "machine %u dimension %u capacity declared twice", event.machine,
            event.task));
      }
      ledger.declared = true;
      ledger.capacity = event.value;
      return;
    }
    case EventType::kPackClaim:
    case EventType::kPackRelease: {
      if (event.machine == kNoId || event.task == kNoId) {
        Violate("pack claim/release event without a machine/dimension");
        return;
      }
      const std::uint64_t key =
          (static_cast<std::uint64_t>(event.machine) << 3) | event.task;
      PackLedger& ledger = pack_ledgers_[key];
      if (event.type == EventType::kPackClaim) {
        ++pack_claims_seen_;
        ledger.outstanding += event.value;
        if (ledger.outstanding > ledger.capacity + 1e-6) {
          Violate(util::StrFormat(
              "machine %u over-committed dimension %u at t=%.6f "
              "(outstanding %.6f > capacity %.6f)",
              event.machine, event.task, event.time, ledger.outstanding,
              ledger.capacity));
        }
      } else {
        ledger.outstanding -= event.value;
        if (ledger.outstanding < -1e-6) {
          Violate(util::StrFormat(
              "machine %u released more of dimension %u than was claimed "
              "at t=%.6f (outstanding %.6f)",
              event.machine, event.task, event.time, ledger.outstanding));
        }
      }
      return;
    }
    case EventType::kGangReserve: {
      GangAudit& gang = gang_rounds_[event.job];
      // Several kGangReserve events (one per member machine) open one
      // round; the first of them flips it open.
      if (!gang.open) {
        gang.open = true;
        ++gang.opens;
        ++gang_rounds_opened_;
      }
      return;
    }
    case EventType::kGangCommit:
    case EventType::kGangAbort: {
      GangAudit& gang = gang_rounds_[event.job];
      if (!gang.open) {
        Violate(util::StrFormat(
            "gang job %u %s at t=%.6f without an open reservation round",
            event.job, EventTypeName(event.type), event.time));
        return;
      }
      gang.open = false;
      ++gang.closes;
      ++gang_rounds_closed_;
      return;
    }
    case EventType::kDagReady: {
      ++dag_ready_seen_;
      ++dag_jobs_[event.job].ready;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(event.job) << 32) | event.task;
      if (!dag_ready_set_.insert(key).second) {
        Violate(util::StrFormat(
            "DAG job %u task %u marked ready twice at t=%.6f", event.job,
            event.task, event.time));
      }
      return;
    }
    case EventType::kDagRelease: {
      ++dag_releases_seen_;
      ++dag_jobs_[event.job].released;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(event.job) << 32) | event.task;
      if (dag_ready_set_.count(key) == 0) {
        Violate(util::StrFormat(
            "DAG job %u released task %u that was never marked ready "
            "at t=%.6f",
            event.job, event.task, event.time));
      }
      if (!dag_released_set_.insert(key).second) {
        Violate(util::StrFormat("DAG job %u task %u released twice at t=%.6f",
                                event.job, event.task, event.time));
      }
      return;
    }
    case EventType::kDeadlineMiss: {
      ++deadline_misses_seen_;
      if (!deadline_missed_jobs_.insert(event.job).second) {
        Violate(util::StrFormat("job %u missed its deadline twice at t=%.6f",
                                event.job, event.time));
      }
      if (event.value <= 0) {
        Violate(util::StrFormat(
            "job %u deadline miss with non-positive lateness %.6f", event.job,
            event.value));
      }
      return;
    }
    default:
      return;  // informational events carry no audited state
  }
}

void InvariantAuditor::ExpectEnergy(double joules, double horizon) {
  energy_expected_ = true;
  expected_joules_ = joules;
  energy_horizon_ = horizon;
}

double InvariantAuditor::IntegratedJoules(double horizon) const {
  double total = 0.0;
  for (const PowerChannel& ch : power_channels_) {
    if (!ch.seen) continue;
    total += ch.joules;
    if (horizon > ch.last) total += ch.watts * (horizon - ch.last);
  }
  return total;
}

void InvariantAuditor::CheckWorker(double now, std::uint32_t machine,
                                   bool busy, bool failed,
                                   bool has_live_slot_event,
                                   std::size_t queue_len,
                                   double est_queued_work, bool final_state,
                                   bool out_of_service) {
  if (out_of_service && (busy || queue_len != 0)) {
    Violate(util::StrFormat(
        "machine %u holds work while out of service at t=%.6f "
        "(busy=%d, queue=%zu)",
        machine, now, busy ? 1 : 0, queue_len));
  }
  if (busy && failed) {
    Violate(util::StrFormat("machine %u busy while failed at t=%.6f", machine,
                         now));
  }
  if (busy && !has_live_slot_event) {
    Violate(util::StrFormat(
        "machine %u busy with no pending slot event at t=%.6f (stranded "
        "slot)",
        machine, now));
  }
  if (est_queued_work < -1e-9) {
    Violate(util::StrFormat("machine %u est_queued_work negative (%.9g)",
                         machine, est_queued_work));
  }
  if (final_state) {
    if (busy) {
      Violate(util::StrFormat("machine %u still busy after the run drained",
                           machine));
    }
    if (queue_len != 0) {
      Violate(util::StrFormat("machine %u ended the run with %zu queued entries",
                           machine, queue_len));
    }
    if (std::fabs(est_queued_work) > 1e-6) {
      Violate(util::StrFormat(
          "machine %u ended the run with est_queued_work %.9g", machine,
          est_queued_work));
    }
  }
}

void InvariantAuditor::CheckRun(double now, std::uint32_t machine,
                                std::uint32_t job, std::uint32_t task,
                                bool failed, bool out_of_service,
                                bool completion_pending, bool final_state) {
  if (failed || out_of_service) {
    Violate(util::StrFormat(
        "machine %u runs job %u task %u while %s at t=%.6f", machine, job,
        task, failed ? "failed" : "out of service", now));
  }
  if (!completion_pending) {
    Violate(util::StrFormat(
        "machine %u runs job %u task %u with no pending completion at "
        "t=%.6f (stranded run)",
        machine, job, task, now));
  }
  if (final_state) {
    Violate(util::StrFormat(
        "machine %u still runs job %u task %u after the run drained", machine,
        job, task));
  }
}

void InvariantAuditor::Finish() {
  if (energy_expected_) {
    // Energy conservation: the joules the scheduler's meter accrued must
    // equal the kPowerState stream integrated over state dwells — a missed
    // or double-counted transition breaks the balance on either side.
    const double integrated = IntegratedJoules(energy_horizon_);
    const double tolerance =
        std::fabs(expected_joules_) * 1e-6 > 1e-3
            ? std::fabs(expected_joules_) * 1e-6
            : 1e-3;
    if (std::fabs(integrated - expected_joules_) > tolerance) {
      Violate(util::StrFormat(
          "energy conservation broken: meter %.6f J vs event-stream "
          "integral %.6f J at horizon %.6f",
          expected_joules_, integrated, energy_horizon_));
    }
  }
  for (std::size_t m = 0; m < machine_lifecycle_.size(); ++m) {
    // Capacity conservation: a lease must close. Ending provisioning means
    // a commission timer was lost; ending draining means the drain never
    // resolved (the grace-deadline force-retire did not fire).
    const std::uint8_t life = machine_lifecycle_[m];
    if (life == kLifeProvisioning || life == kLifeDraining) {
      Violate(util::StrFormat("machine %zu ended the run %s (capacity leak)",
                              m, LifeName(life)));
    }
  }
  for (const auto& [key, ledger] : pack_ledgers_) {
    // Packed-capacity conservation: every claim must be released by the end
    // of the run — a nonzero balance is a leaked run or reservation.
    if (std::fabs(ledger.outstanding) > 1e-6) {
      Violate(util::StrFormat(
          "machine %llu dimension %llu ended the run with %.6f of claimed "
          "capacity outstanding (capacity leak)",
          static_cast<unsigned long long>(key >> 3),
          static_cast<unsigned long long>(key & 0x7ULL),
          ledger.outstanding));
    }
  }
  for (const auto& [job, gang] : gang_rounds_) {
    if (gang.open) {
      Violate(util::StrFormat(
          "gang job %u ended the run with its reservation round still open "
          "(no commit or abort)",
          job));
    }
  }
  for (const auto& [jid, dag] : dag_jobs_) {
    // DAG release conservation: by the end of the run every task of a DAG
    // job must have been released to the dispatch path exactly once.
    const std::uint64_t tasks =
        jid < jobs_.size() && jobs_[jid].arrived ? jobs_[jid].tasks : 0;
    if (dag.released != tasks) {
      Violate(util::StrFormat(
          "DAG job %u released %llu of %llu tasks (precedence deadlock or "
          "double release)",
          jid, static_cast<unsigned long long>(dag.released),
          static_cast<unsigned long long>(tasks)));
    }
  }
  // Each leak names its lowest key, so the diagnosis repeats run to run
  // whatever the hash layout; the count carries the scale.
  if (!outstanding_preemptions_.empty()) {
    const std::uint64_t key = *std::min_element(
        outstanding_preemptions_.begin(), outstanding_preemptions_.end());
    Violate(util::StrFormat(
        "%zu preempted task(s) never requeued (e.g. job %llu task %llu): "
        "every preemption must requeue its victim exactly once",
        outstanding_preemptions_.size(),
        static_cast<unsigned long long>(key >> 32),
        static_cast<unsigned long long>(key & 0xffffffffULL)));
  }
  if (!outstanding_fed_binds_.empty()) {
    const std::uint64_t key = *std::min_element(
        outstanding_fed_binds_.begin(), outstanding_fed_binds_.end());
    Violate(util::StrFormat(
        "%zu cross-shard bind(s) never closed (e.g. job %llu task %llu): "
        "every kFedBindSend must end in exactly one accept or reject",
        outstanding_fed_binds_.size(),
        static_cast<unsigned long long>(key >> 32),
        static_cast<unsigned long long>(key & 0xffffffffULL)));
  }
  if (!inflight_messages_.empty()) {
    std::uint64_t lowest = ~std::uint64_t{0};
    inflight_messages_.ForEach(
        [&lowest](std::uint64_t id) { lowest = std::min(lowest, id); });
    Violate(util::StrFormat(
        "%zu control-plane message(s) still in flight after the run drained "
        "(e.g. id %llu): every send must end in deliver, drop, or expire",
        inflight_messages_.size(), static_cast<unsigned long long>(lowest)));
  }
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const JobStats& job = jobs_[i];
    if (!job.arrived) continue;
    if (!job.done) {
      Violate(util::StrFormat("job %zu never completed", i));
    }
    if (job.OutstandingProbes() != 0) {
      Violate(util::StrFormat(
          "job %zu probe leak: sent %llu != resolved %llu + cancelled %llu "
          "+ declined %llu + bounced %llu",
          i, static_cast<unsigned long long>(job.probes_sent),
          static_cast<unsigned long long>(job.probes_resolved),
          static_cast<unsigned long long>(job.probes_cancelled),
          static_cast<unsigned long long>(job.probes_declined),
          static_cast<unsigned long long>(job.probes_bounced)));
    }
    if (job.completes != job.tasks) {
      Violate(util::StrFormat("job %zu finished %llu of %llu tasks", i,
                           static_cast<unsigned long long>(job.completes),
                           static_cast<unsigned long long>(job.tasks)));
    }
    if (job.starts != job.completes + job.kills) {
      Violate(util::StrFormat(
          "job %zu start/completion imbalance: %llu starts, %llu "
          "completions, %llu kills",
          i, static_cast<unsigned long long>(job.starts),
          static_cast<unsigned long long>(job.completes),
          static_cast<unsigned long long>(job.kills)));
    }
  }
}

std::string InvariantAuditor::Summary() const {
  if (violations_.empty()) return "no invariant violations";
  std::string out = util::StrFormat("%zu invariant violation(s):",
                                 violations_.size());
  const std::size_t show = violations_.size() < 8 ? violations_.size() : 8;
  for (std::size_t i = 0; i < show; ++i) {
    out += "\n  - " + violations_[i];
  }
  return out;
}

}  // namespace phoenix::obs
