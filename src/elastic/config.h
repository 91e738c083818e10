// Elastic cluster lifecycle configuration.
//
// An elastic run partitions the machine universe into three contiguous id
// ranges (the universe is built once, so cluster synthesis stays on the
// static-fleet RNG stream — the first base_machines machines are
// byte-identical to a static fleet of that size):
//
//   [0, base)                          guaranteed base fleet, always active
//   [base, base+reserve)               reserve pool the reactive policy
//                                      scales in and out of
//   [base+reserve, base+reserve+transient)
//                                      transient pool: cheap capacity leased
//                                      toward transient_target but subject
//                                      to stochastic reclamation
#pragma once

#include <cstddef>
#include <cstdint>

namespace phoenix::elastic {

struct ElasticConfig {
  /// Master switch; everything below is ignored when false.
  bool enabled = false;

  /// Universe partition (see above). base + reserve + transient must equal
  /// the cluster size.
  std::size_t base_machines = 0;
  std::size_t reserve_machines = 0;
  std::size_t transient_machines = 0;

  /// Transient leases the controller keeps open (provisioning or active).
  std::size_t transient_target = 0;

  /// Seconds between ProvisionMachine and CommissionMachine (the modeled
  /// boot + image pull + join handshake).
  double warmup_delay = 30.0;

  /// Grace period a scale-down drain gets before a forced retire evicts
  /// whatever is still queued or running.
  double drain_grace = 60.0;

  // ---- Reactive scaling (policy a), every heartbeat tick ------------------
  /// Target cluster-wide mean M/G/1 E[W] (seconds).
  double target_wait = 5.0;
  /// Scale up when mean E[W] > scale_up_factor * target_wait.
  static constexpr double scale_up_factor = 1.5;
  /// Scale down when mean E[W] < scale_down_factor * target_wait.
  double scale_down_factor = 0.25;
  /// Machines moved per scaling decision.
  static constexpr std::size_t scale_step = 4;
  /// Minimum seconds between two scaling decisions (damps oscillation
  /// across the warm-up delay).
  static constexpr double decision_cooldown = 30.0;

  // CRV-aware supply shaping (policy b) is always on: under Phoenix every
  // scale-up prefers the reserve machines that satisfy the hottest CRV
  // predicates (ElasticityController::PickProvisionCandidate).

  // ---- Transient reclamation (policy c) -----------------------------------
  /// Per-second reclamation hazard of each active transient lease (0
  /// disables). Reclaimed leases drain for reclaim_grace seconds, then any
  /// remaining work is force-evicted and redispatched.
  double reclaim_rate = 0.0;
  double reclaim_grace = 15.0;

  /// Mixed with the scheduler seed into the controller's private RNG
  /// stream, so reclamation draws never perturb scheduler sampling.
  static constexpr std::uint64_t seed = 0;

  std::size_t universe_size() const {
    return base_machines + reserve_machines + transient_machines;
  }
};

}  // namespace phoenix::elastic
