#include "power/controller.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/phoenix.h"
#include "util/check.h"

namespace phoenix::power {

namespace {
// Estimator waits are +infinity for an unstable queue; the same clamp the
// elasticity controller applies keeps the median finite.
constexpr double kWaitClamp = 1e6;
// Per-tick EWMA weight for the sampled occupancy: at the heartbeat cadence
// this averages utilization over roughly the last five ticks.
constexpr double kUtilAlpha = 0.2;
}  // namespace

double StepUtilEwma(double ewma, bool occupied) {
  if (!occupied && ewma <= 2 * std::numeric_limits<double>::denorm_min()) {
    return ewma;
  }
  return ewma + kUtilAlpha * ((occupied ? 1.0 : 0.0) - ewma);
}

double MedianWait(std::size_t zeros, std::vector<double>& nonzero) {
  // Waits are >= 0, so the zeros sort first: the median is 0 while they
  // reach the middle slot, and otherwise the right rank among the rest.
  const std::size_t mid = (zeros + nonzero.size()) / 2;
  if (mid < zeros || nonzero.empty()) return 0.0;
  const auto it = nonzero.begin() + static_cast<std::ptrdiff_t>(mid - zeros);
  std::nth_element(nonzero.begin(), it, nonzero.end());
  return *it;
}

PowerController::PowerController(sim::Engine& engine,
                                 sched::SchedulerBase& scheduler,
                                 cluster::MembershipView& view,
                                 PowerManager& manager, std::size_t park_limit)
    : engine_(engine), scheduler_(scheduler), view_(view), manager_(manager),
      policy_(manager.config().policy),
      phoenix_(dynamic_cast<core::PhoenixScheduler*>(&scheduler)),
      park_limit_(std::min(park_limit, view.size())),
      tick_interval_(scheduler.config().heartbeat_interval),
      last_busy_seen_(view.size(), 0.0), util_ewma_(view.size(), 0.0) {
  PHOENIX_CHECK_MSG(view.size() == scheduler.num_machines(),
                    "membership view and scheduler disagree on fleet size");
}

void PowerController::Start() {
  engine_.ScheduleAfter(tick_interval_, [this] { Tick(); });
}

void PowerController::Tick() {
  if (scheduler_.AllJobsDone()) return;
  const double now = engine_.Now();
  const FleetSample fleet = Sample(now);
  WakePass(now, fleet.pressure);
  if (policy_.dvfs) DvfsPass(now);
  if (policy_.park) ParkPass(now, fleet);
  engine_.ScheduleAfter(tick_interval_, [this] { Tick(); });
}

PowerController::FleetSample PowerController::Sample(double now) {
  FleetSample fleet;
  std::size_t zero_waits = 0;
  nonzero_waits_.clear();
  const util::Bitset& live = scheduler_.live();
  fleet.awake = scheduler_.live_count();
  live.ForEachSetBit(0, live.size(), [&](std::size_t id) {
    const auto mid = static_cast<cluster::MachineId>(id);
    const bool occupied = scheduler_.Occupied(mid);
    // A drained worker's estimator cache still shows its last busy period,
    // but its true wait for a new arrival is ~0 — count it as such.
    double wait = 0.0;
    if (occupied) {
      last_busy_seen_[id] = now;
      ++fleet.occupied;
      wait = std::min(scheduler_.worker_state(mid).estimator.EstimateWait(),
                      kWaitClamp);
    }
    if (wait == 0.0) {
      ++zero_waits;
    } else {
      nonzero_waits_.push_back(wait);
    }
    util_ewma_[id] = StepUtilEwma(util_ewma_[id], occupied);
    fleet.util_sum += util_ewma_[id];
  });
  // Pressure: no idle machine left (saturation — a new arrival must queue
  // no matter what the estimators say), or the median E[W] across the
  // awake fleet breaching the wake threshold. The median keeps a few
  // saturated stragglers from drowning the signal: tasks queued behind one
  // long-running machine are not a reason to wake the fleet.
  fleet.median_wait = MedianWait(zero_waits, nonzero_waits_);
  fleet.pressure =
      (fleet.awake > 0 && fleet.occupied == fleet.awake) ||
      fleet.median_wait > policy_.wake_wait_factor * policy_.target_wait;
  return fleet;
}

void PowerController::BeginWake(cluster::MachineId id) {
  scheduler_.WakeParkedMachine(id);
}

void PowerController::WakePass(double now, bool pressure) {
  (void)now;
  // Hot predicates with queued demand and zero awake supply — uncovered
  // demand that cannot be served until a satisfying machine wakes. This is
  // the CRV-driven wake signal (Phoenix only; other schedulers wake on the
  // fleet pressure signal alone). Transient count > supply buildup drains
  // on its own and is deliberately not a wake trigger.
  std::vector<core::CrvMonitor::PredicateDemand> hot;
  if (phoenix_ != nullptr) {
    for (const auto& pd : phoenix_->HotSupplyDemand()) {
      if (pd.count > 0 && pd.supply == 0) hot.push_back(pd);
    }
  }
  if (!pressure && hot.empty()) return;

  struct Candidate {
    cluster::MachineId id;
    std::size_t hot_score;
    double penalty;
  };
  std::vector<Candidate> candidates;
  for (std::size_t id = 0; id < view_.size(); ++id) {
    if (view_.state(id) != cluster::MachineLifecycle::kParked) continue;
    if (scheduler_.worker_state(id).failed) continue;
    std::size_t score = 0;
    for (const auto& pd : hot) {
      if (view_.cluster().machine(id).Satisfies(pd.constraint)) ++score;
    }
    candidates.push_back({static_cast<cluster::MachineId>(id), score,
                          manager_.WakePenalty(id)});
  }
  if (candidates.empty()) return;
  // Hot-predicate coverage first, then the cheapest wake, then lowest id —
  // the wake-cost penalty is how probe-plane economics reach this decision.
  // A total order, so ranking only the wake_step front is exact.
  const auto front = candidates.begin() +
                     static_cast<std::ptrdiff_t>(
                         std::min(policy_.wake_step, candidates.size()));
  std::partial_sort(candidates.begin(), front, candidates.end(),
                    [](const Candidate& a, const Candidate& b) {
                      if (a.hot_score != b.hot_score) {
                        return a.hot_score > b.hot_score;
                      }
                      if (a.penalty != b.penalty) return a.penalty < b.penalty;
                      return a.id < b.id;
                    });
  std::size_t wakes = 0;
  for (const Candidate& c : candidates) {
    if (wakes >= policy_.wake_step) break;
    // Without fleet-wide pressure only wake for uncovered hot demand.
    if (!pressure && c.hot_score == 0) break;
    BeginWake(c.id);
    ++wakes;
  }
  if (wakes > 0) ++stats_.wake_decisions;
}

void PowerController::DvfsPass(double now) {
  (void)now;
  const util::Bitset& live = scheduler_.live();
  live.ForEachSetBit(0, live.size(), [&](std::size_t id) {
    const double rho = util_ewma_[id];
    const unsigned p = manager_.p_state(id);
    if (rho > policy_.dvfs_high_rho && p > 0) {
      scheduler_.SetMachinePState(static_cast<cluster::MachineId>(id), p - 1);
    } else if (rho < policy_.dvfs_low_rho && p + 1 < kNumPStates) {
      scheduler_.SetMachinePState(static_cast<cluster::MachineId>(id), p + 1);
    }
  });
}

void PowerController::ParkPass(double now, const FleetSample& fleet) {
  // Hysteresis band: wakes fire above wake_wait_factor * target_wait,
  // parks only below target_wait itself. In between the controller holds —
  // otherwise consolidating to the rho target pushes waits over the wake
  // threshold and the fleet bang-bangs between park and wake.
  if (fleet.pressure || fleet.median_wait > policy_.target_wait) return;
  const auto floor = static_cast<std::size_t>(std::ceil(
      policy_.min_active_fraction * static_cast<double>(view_.size())));
  const std::size_t min_active = std::max<std::size_t>(1, floor);
  // Consolidation target: enough awake machines to run the sampled
  // utilization at park_target_rho. Anything above that is excess the
  // survivors can absorb.
  const auto target = std::max(
      min_active, static_cast<std::size_t>(
                      std::ceil(fleet.util_sum / policy_.park_target_rho)));
  if (fleet.awake <= target) return;
  const std::size_t excess = fleet.awake - target;

  // CRV-aware coverage veto: never park the last awake satisfier of a
  // currently-hot predicate — waking it back costs a full S3 exit the
  // moment that demand recurs. Rare-predicate demand that is not hot right
  // now is covered by the dispatch-time demand wake instead of a veto.
  std::vector<core::CrvMonitor::PredicateDemand> hot;
  if (phoenix_ != nullptr) {
    for (const auto& pd : phoenix_->HotSupplyDemand()) {
      if (pd.supply <= 1) hot.push_back(pd);
    }
  }

  struct Candidate {
    cluster::MachineId id;
    double last_busy;
  };
  std::vector<Candidate> candidates;
  scheduler_.live().ForEachSetBit(0, park_limit_, [&](std::size_t id) {
    const auto mid = static_cast<cluster::MachineId>(id);
    if (scheduler_.Occupied(mid)) return;
    if (now - last_busy_seen_[id] < policy_.park_idle_after) return;
    candidates.push_back({mid, last_busy_seen_[id]});
  });
  // Longest-idle first; ties (e.g. never-busy machines) break on id so the
  // decision is identical across thread counts. That is a total order and
  // the loop parks at most park_step, so a heap hands the candidates out in
  // that order, only as many as the loop consumes.
  const auto parks_after = [](const Candidate& a, const Candidate& b) {
    if (a.last_busy != b.last_busy) return a.last_busy > b.last_busy;
    return a.id > b.id;
  };
  std::make_heap(candidates.begin(), candidates.end(), parks_after);
  std::size_t parks = 0;
  while (!candidates.empty() && parks < policy_.park_step && parks < excess) {
    std::pop_heap(candidates.begin(), candidates.end(), parks_after);
    const Candidate c = candidates.back();
    candidates.pop_back();
    if (view_.bindable_count() <= min_active) {
      ++stats_.park_vetoes_floor;
      break;
    }
    bool last_satisfier = false;
    for (const auto& pd : hot) {
      if (view_.cluster().machine(c.id).Satisfies(pd.constraint)) {
        last_satisfier = true;
        break;
      }
    }
    if (last_satisfier) {
      ++stats_.park_vetoes_coverage;
      continue;
    }
    if (scheduler_.ParkMachine(c.id)) ++parks;
  }
}

}  // namespace phoenix::power
