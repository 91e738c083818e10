// PowerController: park/DVFS/wake policy on the heartbeat cadence.
//
// Runs its own tick chain at the scheduler's heartbeat interval (scheduled
// after SubmitTrace, so each tick observes the heartbeat's refreshed state
// at the same instant — the same pattern as elastic::ElasticityController).
//
// The controller samples its own signals from ground-truth worker state
// rather than the per-worker M/G/1 caches: those caches only refresh on
// task events, so an idle worker advertises its last busy-period estimate
// indefinitely (correct for probe ranking, where only occupied workers
// matter, but garbage for fleet-wide control). Each tick maintains a
// per-machine busy/queued EWMA (the utilization signal for DVFS and park
// sizing) and derives fleet pressure from saturation (every awake machine
// occupied) plus the median E[W] across the awake fleet, counting drained
// workers at zero.
//
// Each tick, in order:
//
//   1. Wake pass — under fleet pressure, or when Phoenix reports hot CRV
//      predicates with queued demand and zero awake supply (uncovered
//      demand: those tasks cannot be served until a satisfying machine
//      wakes), wake up to wake_step parked machines (hot-predicate
//      coverage first, then cheapest wake). A wake is
//      ProvisionMachine(wake_latency) plus a timer that commissions the
//      machine when the S3 exit completes.
//   2. DVFS pass — step each bindable worker's P-state one notch through
//      the [dvfs_low_rho, dvfs_high_rho] hysteresis band on its sampled
//      utilization.
//   3. Park pass — consolidation: size the awake fleet so the sampled
//      utilization would run at park_target_rho on the survivors, then
//      park the longest-idle excess (each candidate continuously idle for
//      park_idle_after), capped per tick, vetoed by the min-active floor
//      and by the CRV coverage guard (never park the last awake satisfier
//      of a currently-hot predicate), and suppressed entirely while the
//      median wait sits above target_wait — the hysteresis band below the
//      wake threshold that keeps park/wake from bang-banging. Probes only
//      sample bindable machines, so parking concentrates load on the
//      survivors; if a rare constraint later arrives with every satisfier
//      asleep, the scheduler's dispatch-time demand wake covers it.
//
// Every scan is an ascending-id loop with no RNG, so powered runs stay
// fingerprint-identical across --threads for free. The fleet scans walk
// the scheduler's dense live set and occupancy hints, and read a worker
// record only for an occupied machine's wait estimate.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/membership.h"
#include "power/config.h"
#include "power/manager.h"
#include "sched/base.h"
#include "sim/engine.h"

namespace phoenix::core {
class PhoenixScheduler;
}  // namespace phoenix::core

namespace phoenix::power {

/// One tick of a machine's utilization EWMA: `ewma + 0.2 * (x - ewma)`
/// with x = 1 when the machine is occupied, 0 when idle — bit for bit,
/// but an idle step from at most 2 x denorm_min returns `ewma` without the
/// arithmetic. There the decrement rounds to zero, so the step is a fixed
/// point, and subnormal arithmetic costs a microcode assist per operation
/// on a value a long-idle machine keeps for the rest of the run.
double StepUtilEwma(double ewma, bool occupied);

/// The median (the element at index size/2 once sorted) of a wait list
/// made of `zeros` zero waits and the positive waits in `nonzero`, which
/// it reorders. Selects among the non-zero waits only.
double MedianWait(std::size_t zeros, std::vector<double>& nonzero);

class PowerController {
 public:
  /// `park_limit`: only machines with id < park_limit are park candidates
  /// (an elastic run excludes its transient pool so lease top-up and the
  /// park policy do not fight over the same machines; DVFS and wakes cover
  /// the whole fleet). The controller borrows everything it is handed.
  PowerController(sim::Engine& engine, sched::SchedulerBase& scheduler,
                  cluster::MembershipView& view, PowerManager& manager,
                  std::size_t park_limit);

  /// Schedules the recurring tick. Call after SubmitTrace.
  void Start();

  struct Stats {
    std::uint64_t park_vetoes_coverage = 0;
    std::uint64_t park_vetoes_floor = 0;
    std::uint64_t wake_decisions = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Fleet state sampled at the top of each tick.
  struct FleetSample {
    std::size_t awake = 0;     // bindable, non-failed machines
    std::size_t occupied = 0;  // of those, holding running or queued work
    double util_sum = 0.0;     // sum of per-machine utilization EWMAs
    double median_wait = 0.0;  // median E[W] across the awake fleet
    bool pressure = false;     // wake-threshold breach (see Sample())
  };

  void Tick();
  FleetSample Sample(double now);
  void WakePass(double now, bool pressure);
  void DvfsPass(double now);
  void ParkPass(double now, const FleetSample& fleet);
  void BeginWake(cluster::MachineId id);

  sim::Engine& engine_;
  sched::SchedulerBase& scheduler_;
  cluster::MembershipView& view_;
  PowerManager& manager_;
  const PowerPolicy& policy_;
  core::PhoenixScheduler* phoenix_ = nullptr;  // CRV-aware wake targeting
  std::size_t park_limit_;
  double tick_interval_;
  /// Last tick at which each machine was seen holding work; parking
  /// requires a full park_idle_after of consecutive idle observations.
  std::vector<double> last_busy_seen_;
  /// Per-machine busy-or-queued occupancy, EWMA-sampled once per tick —
  /// the controller's own utilization estimate (the worker-side M/G/1
  /// caches go stale the moment a worker drains).
  std::vector<double> util_ewma_;
  /// This tick's non-zero awake waits; reused by Sample() across ticks.
  std::vector<double> nonzero_waits_;
  Stats stats_;
};

}  // namespace phoenix::power
