// Configuration for the energy/power subsystem (src/power).
//
// A PowerConfig with enabled == false (the default) attaches nothing: the
// scheduler never constructs a PowerManager, no machine carries a power
// state, and the simulation is byte-identical to a build without src/power.
#pragma once

#include <cstddef>

namespace phoenix::power {

/// Actuation policy knobs for the PowerController. With both `park` and
/// `dvfs` off the controller only meters energy (the "always-on" baseline
/// every park/DVFS policy is judged against).
struct PowerPolicy {
  /// Deep-sleep (S-state) idle machines after `park_idle_after` seconds.
  bool park = true;
  /// DVFS-throttle lightly loaded machines / boost loaded ones (P-states).
  bool dvfs = true;

  /// A machine must be continuously idle (no running task, empty queue)
  /// for this long before it becomes a park candidate.
  static constexpr double park_idle_after = 30.0;
  /// Consolidation target: park excess machines until the observed fleet
  /// utilization would run at roughly this rho on the remaining awake
  /// capacity. Probes only sample bindable machines, so parking the excess
  /// concentrates load on the survivors instead of leaving the whole fleet
  /// lukewarm.
  static constexpr double park_target_rho = 0.6;
  /// Never park below this fraction of the fleet kept bindable — the
  /// floor bounds worst-case wake storms after a lull.
  static constexpr double min_active_fraction = 0.25;
  /// Parks are suppressed (and wakes issued) while the fleet-mean E[W]
  /// exceeds wake_wait_factor * target_wait.
  static constexpr double target_wait = 5.0;
  static constexpr double wake_wait_factor = 1.5;
  /// Per-tick actuation caps: at most this many parks/wakes per decision.
  static constexpr std::size_t park_step = 4;
  static constexpr std::size_t wake_step = 4;

  /// DVFS hysteresis band on the per-worker observed utilization rho:
  /// below `dvfs_low_rho` step one P-state down (slower, cheaper), above
  /// `dvfs_high_rho` step one up (faster, hungrier).
  static constexpr double dvfs_low_rho = 0.15;
  static constexpr double dvfs_high_rho = 0.60;

  /// CRV supply weight of a parked machine that satisfies a predicate:
  /// sleeping capacity counts as wake-discounted supply (0 disables).
  static constexpr double parked_supply_weight = 0.5;
  /// A parked worker's advertised E[W] is wake_penalty_factor x its
  /// wake latency — the wake cost folded into WorkerWaitEstimator.
  static constexpr double wake_penalty_factor = 1.0;
};

struct PowerConfig {
  bool enabled = false;
  PowerPolicy policy;
};

}  // namespace phoenix::power
