// Configuration for multi-resource packing, gang scheduling, and malleable
// jobs. Default-constructed (enabled == false) the scheduler's single-slot
// paths are byte-identical to the packing-free tree — the same layering
// contract every optional subsystem in this repo honors.
#pragma once

#include <cstdint>

namespace phoenix::packing {

struct PackingConfig {
  /// Master switch: off keeps the boolean slot-free worker model.
  bool enabled = false;

  // --- demand shaping -------------------------------------------------------
  // Per-job demand vectors are pure hashes of (run seed, job id) — see
  // demand.h — shaped by these knobs. All tasks of a job share its demand,
  // the same convention the constraint synthesizer uses.

  /// Exponent bucketing for the core demand: cores = 2^k, k in
  /// [0, demand_core_buckets), skewed toward small requests.
  std::uint32_t demand_core_buckets = 4;  // 1, 2, 4, 8 cores
  /// Memory demand per requested core, uniform in [lo, hi] GB.
  double demand_mem_per_core_lo = 1.0;
  double demand_mem_per_core_hi = 8.0;
  /// Fraction of jobs demanding one GPU.
  double gpu_job_fraction = 0.08;

  // --- placement score ------------------------------------------------------

  /// Weight of the fragmentation penalty against the dot-product alignment
  /// term in PackScore (policy.h).
  double frag_weight = 0.5;

  // --- gang scheduling ------------------------------------------------------

  /// Fraction of multi-task jobs tagged as gangs by the trace generator
  /// (threaded through trace::GeneratorOptions by the benches).
  double gang_fraction = 0.0;
  /// Reservation hold time: a gang's multi-machine reservation is abandoned
  /// (abort + release) if its members have not all arrived by then.
  double gang_hold = 30.0;
  /// Base delay before re-attempting a gang that found insufficient free
  /// capacity; doubles per consecutive retry up to gang_retry_cap.
  static constexpr double gang_retry_backoff = 5.0;
  static constexpr double gang_retry_cap = 120.0;

  // --- malleable jobs -------------------------------------------------------

  /// Fraction of multi-task jobs tagged malleable by the trace generator.
  double malleable_fraction = 0.0;
  /// A malleable job's minimum parallelism as a fraction of its task count
  /// (floored at 1) — the inelastic core of an elastic job (arXiv
  /// 2005.09745).
  double malleable_min_frac = 0.25;
};

}  // namespace phoenix::packing
