#include "elastic/controller.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/phoenix.h"
#include "power/manager.h"
#include "util/check.h"

namespace phoenix::elastic {

using cluster::MachineId;
using cluster::MachineLifecycle;

namespace {

/// Mixes the run seed with the controller's sub-stream seed (splitmix-style
/// constants) so every (run seed, elastic seed) pair gets an independent
/// reclamation stream.
std::uint64_t MixSeed(std::uint64_t run_seed, std::uint64_t elastic_seed) {
  std::uint64_t state = run_seed * 0x9e3779b97f4a7c15ULL + elastic_seed;
  return util::SplitMix64(state) ^ 0xc2b2ae3d27d4eb4fULL;
}

}  // namespace

ElasticityController::ElasticityController(sim::Engine& engine,
                                           sched::SchedulerBase& scheduler,
                                           cluster::MembershipView& view,
                                           const ElasticConfig& config)
    : engine_(engine), scheduler_(scheduler), view_(view), config_(config),
      phoenix_(dynamic_cast<const core::PhoenixScheduler*>(&scheduler)),
      rng_(MixSeed(scheduler.config().seed, config.seed)) {
  PHOENIX_CHECK_MSG(config_.enabled, "controller built with elasticity off");
  PHOENIX_CHECK_MSG(config_.universe_size() == scheduler_.num_machines(),
                    "base+reserve+transient must equal the cluster size");
  PHOENIX_CHECK_MSG(view_.guaranteed_active() == config_.base_machines,
                    "view's guaranteed prefix must be the base fleet");
  PHOENIX_CHECK_MSG(scheduler_.membership() == &view_,
                    "attach the view to the scheduler first (SetMembership)");
  PHOENIX_CHECK(config_.transient_target <= config_.transient_machines);
  PHOENIX_CHECK(config_.base_machines > 0);
}

void ElasticityController::Start() {
  last_tick_ = engine_.Now();
  LeaseTransients();
  engine_.ScheduleAfter(scheduler_.config().heartbeat_interval,
                        [this] { Tick(); });
}

void ElasticityController::Tick() {
  // Once every job is done the run is draining: stop the recurring tick and
  // let the outstanding warm-up / grace timers close the open leases (the
  // auditor checks no machine ends the run provisioning or draining).
  if (scheduler_.AllJobsDone()) return;
  const double now = engine_.Now();
  const double dt = now - last_tick_;
  last_tick_ = now;
  LeaseTransients();
  if (config_.reclaim_rate > 0 && dt > 0) CheckReclamation(dt);
  PollDrains();
  ReactiveDecision();
  engine_.ScheduleAfter(scheduler_.config().heartbeat_interval,
                        [this] { Tick(); });
}

void ElasticityController::LeaseTransients() {
  const std::size_t lo = config_.base_machines + config_.reserve_machines;
  const std::size_t hi = config_.universe_size();
  std::size_t open = 0;
  for (std::size_t id = lo; id < hi; ++id) {
    const MachineLifecycle s = view_.state(static_cast<MachineId>(id));
    if (s == MachineLifecycle::kProvisioning || s == MachineLifecycle::kActive) {
      ++open;
    }
  }
  for (std::size_t id = lo; id < hi && open < config_.transient_target; ++id) {
    const auto mid = static_cast<MachineId>(id);
    const MachineLifecycle s = view_.state(mid);
    if (s != MachineLifecycle::kParked && s != MachineLifecycle::kRetired) {
      continue;
    }
    if (scheduler_.worker_state(mid).failed) continue;
    BeginLease(mid);
    ++open;
  }
}

void ElasticityController::CheckReclamation(double dt) {
  // One Bernoulli draw per active transient lease, ascending id — the draw
  // count depends only on membership state, so the stream is reproducible
  // for a given seed and tick history.
  const double p = 1.0 - std::exp(-config_.reclaim_rate * dt);
  const std::size_t lo = config_.base_machines + config_.reserve_machines;
  const std::size_t hi = config_.universe_size();
  for (std::size_t id = lo; id < hi; ++id) {
    const auto mid = static_cast<MachineId>(id);
    if (view_.state(mid) != MachineLifecycle::kActive) continue;
    if (!rng_.Bernoulli(p)) continue;
    BeginDrain(mid, sched::SchedulerBase::DrainReason::kReclamation,
               config_.reclaim_grace);
  }
}

void ElasticityController::PollDrains() {
  for (auto it = drain_deadline_.begin(); it != drain_deadline_.end();) {
    if (TryRetire(it->first, /*force=*/false)) {
      it = drain_deadline_.erase(it);
    } else {
      ++it;
    }
  }
}

void ElasticityController::ReactiveDecision() {
  const double now = engine_.Now();
  if (now - last_decision_ < config_.decision_cooldown) return;
  if (view_.bindable_count() == 0) return;
  double mean = 0;
  if (const auto* plane = scheduler_.federation()) {
    // Sharded control plane: the controller sits with shard 0 and scales on
    // its gossiped global view (own territory + fresh peer digests) instead
    // of scanning the fleet — stale peers drop out of the average, so a
    // partition degrades the signal toward shard 0's own load, never to
    // garbage.
    mean = plane->GlobalMeanWait(0);
  } else {
    // Cluster-wide mean of the per-worker M/G/1 E[W] estimates. A saturated
    // estimator reports +infinity; clamp so one hot worker reads as "very
    // congested" rather than poisoning the mean outright. With power
    // management attached, parked machines join the mean at their
    // wake-penalized estimate (exactly the wake penalty on a cleared
    // estimator): sleeping capacity reads as available-at-a-cost, so the
    // park-vs-scale decision sees the energy dimension.
    const bool count_parked = scheduler_.power() != nullptr;
    double sum = 0;
    std::size_t counted = 0;
    for (std::size_t id = 0; id < scheduler_.num_machines(); ++id) {
      const auto mid = static_cast<MachineId>(id);
      const bool parked_supply =
          count_parked && view_.state(mid) == MachineLifecycle::kParked &&
          !scheduler_.worker_state(mid).failed;
      if (!view_.Bindable(mid) && !parked_supply) continue;
      sum += std::min(scheduler_.worker_state(mid).estimator.EstimateWait(),
                      1e6);
      ++counted;
    }
    mean = count_parked ? sum / static_cast<double>(counted)
                        : sum / static_cast<double>(view_.bindable_count());
  }
  if (mean > config_.scale_up_factor * config_.target_wait) {
    ScaleUp(config_.scale_step);
  } else if (mean < config_.scale_down_factor * config_.target_wait) {
    ScaleDown(config_.scale_step);
  }
}

void ElasticityController::ScaleUp(std::size_t step) {
  std::size_t moved = 0;
  for (std::size_t i = 0; i < step; ++i) {
    const MachineId id = PickProvisionCandidate();
    if (id == cluster::kInvalidMachine) break;
    BeginLease(id);
    ++moved;
  }
  if (moved > 0) {
    ++scheduler_.counters().elastic_scale_up_decisions;
    last_decision_ = engine_.Now();
  }
}

void ElasticityController::ScaleDown(std::size_t step) {
  // Drain the least-loaded active reserve machines (highest id among ties,
  // so repeated scale-downs peel the reserve from the top). The base fleet
  // and the transient pool are out of scope: the base never drains, and
  // transients leave only through reclamation or their own lease policy.
  std::vector<MachineId> candidates;
  const std::size_t lo = config_.base_machines;
  const std::size_t hi = lo + config_.reserve_machines;
  for (std::size_t id = lo; id < hi; ++id) {
    const auto mid = static_cast<MachineId>(id);
    if (view_.Bindable(mid)) candidates.push_back(mid);
  }
  if (candidates.empty()) return;
  std::sort(candidates.begin(), candidates.end(),
            [this](MachineId a, MachineId b) {
              const double la = scheduler_.worker_state(a).est_queued_work;
              const double lb = scheduler_.worker_state(b).est_queued_work;
              if (la != lb) return la < lb;
              return a > b;
            });
  const std::size_t moved = std::min(step, candidates.size());
  for (std::size_t i = 0; i < moved; ++i) {
    BeginDrain(candidates[i], sched::SchedulerBase::DrainReason::kScaleDown,
               config_.drain_grace);
  }
  if (moved > 0) {
    ++scheduler_.counters().elastic_scale_down_decisions;
    last_decision_ = engine_.Now();
  }
}

MachineId ElasticityController::PickProvisionCandidate() {
  std::vector<MachineId> candidates;
  const std::size_t lo = config_.base_machines;
  const std::size_t hi = lo + config_.reserve_machines;
  for (std::size_t id = lo; id < hi; ++id) {
    const auto mid = static_cast<MachineId>(id);
    const MachineLifecycle s = view_.state(mid);
    if (s != MachineLifecycle::kParked && s != MachineLifecycle::kRetired) {
      continue;
    }
    if (scheduler_.worker_state(mid).failed) continue;
    candidates.push_back(mid);
  }
  if (candidates.empty()) return cluster::kInvalidMachine;
  if (phoenix_ != nullptr) {
    // CRV-aware supply shaping: bring up the candidate that relieves the
    // most queued demand on the hottest dimension. HotPredicates orders
    // hottest-first; scoring by total satisfied demand lets one machine
    // serve several starved predicates at once.
    const auto hot = phoenix_->HotSupplyDemand();
    MachineId best = cluster::kInvalidMachine;
    std::uint64_t best_score = 0;
    for (const MachineId id : candidates) {
      const cluster::Machine& m = view_.cluster().machine(id);
      std::uint64_t score = 0;
      for (const auto& pd : hot) {
        if (m.Satisfies(pd.constraint)) score += pd.count;
      }
      if (score > best_score) {
        best_score = score;
        best = id;
      }
    }
    if (best != cluster::kInvalidMachine) {
      ++scheduler_.counters().elastic_crv_shaped_picks;
      return best;
    }
  }
  return candidates.front();  // lowest id
}

void ElasticityController::BeginLease(MachineId id) {
  // A machine sleeping in S3 pays its class's wake transition instead of the
  // configured cold warm-up — the whole point of parking over retiring.
  double warmup = config_.warmup_delay;
  if (const auto* pm = scheduler_.power(); pm != nullptr && pm->asleep(id)) {
    warmup = pm->WakeLatency(id);
  }
  scheduler_.ProvisionMachine(id, warmup);
  engine_.ScheduleAfter(warmup, [this, id] {
    if (view_.state(id) != MachineLifecycle::kProvisioning) return;
    scheduler_.CommissionMachine(id);
    tasks_at_commission_[id] = scheduler_.worker_state(id).tasks_started;
  });
}

void ElasticityController::BeginDrain(MachineId id,
                                      sched::SchedulerBase::DrainReason reason,
                                      double grace) {
  scheduler_.DrainMachine(id, reason);
  const double deadline = engine_.Now() + grace;
  drain_deadline_[id] = DrainRecord{
      deadline, reason == sched::SchedulerBase::DrainReason::kReclamation};
  engine_.ScheduleAfter(grace, [this, id] {
    auto it = drain_deadline_.find(id);
    // Gone: a tick-poll graceful retire beat the timer. Later deadline: the
    // machine was retired, re-leased and re-drained; that drain's own timer
    // will handle it.
    if (it == drain_deadline_.end()) return;
    if (it->second.deadline > engine_.Now() + 1e-9) return;
    drain_deadline_.erase(it);
    if (!TryRetire(id, /*force=*/false)) {
      TryRetire(id, /*force=*/true);
    }
  });
}

bool ElasticityController::TryRetire(MachineId id, bool force) {
  // Park-vs-retire: with power management attached a drained machine we
  // still own goes to sleep instead of leaving the universe — waking it
  // later costs seconds, not a cold lease. A reclaimed transient is the
  // provider's machine; it must truly retire.
  if (!force && scheduler_.power() != nullptr) {
    auto it = drain_deadline_.find(id);
    const bool reclaimed = it != drain_deadline_.end() && it->second.reclaimed;
    if (!reclaimed && scheduler_.ParkMachine(id)) {
      ++scheduler_.counters().power_parks_instead_of_retire;
      CloseLease(id);
      return true;
    }
    if (!reclaimed) return false;  // still holds work; keep polling
  }
  if (!scheduler_.RetireMachine(id, force)) return false;
  CloseLease(id);
  return true;
}

void ElasticityController::CloseLease(MachineId id) {
  auto it = tasks_at_commission_.find(id);
  if (it != tasks_at_commission_.end()) {
    if (scheduler_.worker_state(id).tasks_started == it->second) {
      scheduler_.counters().elastic_wasted_warmup_seconds +=
          config_.warmup_delay;
    }
    tasks_at_commission_.erase(it);
  }
}

}  // namespace phoenix::elastic
