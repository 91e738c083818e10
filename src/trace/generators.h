// Synthetic trace generation calibrated to the published statistics of the
// paper's three workloads.
//
// The real traces are not redistributable (and Google's constraint values
// are hashed), so we generate job streams that match the marginals the
// paper itself calibrates to:
//   * heavy-tailed ("Pareto bound") task durations with 80-90 % short jobs,
//   * bursty arrivals — a two-state modulated Poisson process whose
//     peak-to-median arrival-rate ratio is tunable (paper: 9:1 .. 260:1),
//   * ~50 % of tasks constrained, with the Table II attribute mix and the
//     Fig 6 constraints-per-job distribution (via ConstraintSynthesizer),
//   * per-trace short-job shares from Table III (Yahoo 91.56 %, Cloudera
//     95 %, Google 90.2 %).
// The arrival rate is calibrated so the trace offers `target_load` average
// utilization on a `num_workers` single-slot fleet; scheduler experiments
// then sweep utilization by varying the fleet size, exactly as in Fig 7.
#pragma once

#include <cmath>
#include <string>

#include "trace/synthesizer.h"
#include "trace/trace.h"

namespace phoenix::trace {

struct GeneratorOptions {
  std::size_t num_jobs = 10000;
  /// Fleet size the load calibration targets.
  std::size_t num_workers = 1000;
  /// Average offered utilization on that fleet.
  double target_load = 0.85;
  std::uint64_t seed = 1;

  SynthesizerOptions synth;

  /// Fraction of jobs that are short / latency-critical.
  double short_job_fraction = 0.90;

  /// Short task durations: bounded Pareto(alpha, lo, hi) seconds.
  double short_alpha = 1.3;
  double short_lo = 1.0;
  double short_hi = 300.0;

  /// Long task durations: lognormal (log-space mu/sigma) seconds.
  double long_mu = 6.4;    // e^6.4 ~ 600 s median
  double long_sigma = 0.6;

  /// Tasks per job: geometric with these means (>= 1).
  double short_tasks_mean = 8.0;
  double long_tasks_mean = 30.0;

  /// Fraction of long jobs requesting rack anti-affinity (spread across
  /// racks for fault tolerance) and of short multi-task jobs requesting
  /// rack co-location (data locality) — the combinatorial constraints of
  /// paper SIII-A.
  double spread_fraction = 0.10;
  double colocate_fraction = 0.10;

  /// Tenant mix: job i is tagged tenant t with probability
  /// tenant_weights[t] / sum(tenant_weights). Empty (the default) leaves
  /// every job untenanted and draws nothing — traces are byte-identical to
  /// the pre-tenancy generator. Tags are drawn from a dedicated RNG stream
  /// forked after every other stream, so tagging a trace never perturbs its
  /// arrivals, shapes, or constraints.
  std::vector<double> tenant_weights;

  /// Burstiness (two-state modulated Poisson): during a burst the arrival
  /// rate is multiplied by burst_factor; bursts cover burst_fraction of
  /// time in episodes of mean burst_duration_mean seconds.
  double burst_factor = 10.0;
  double burst_fraction = 0.08;
  double burst_duration_mean = 120.0;

  /// Packing structure: each multi-task job is tagged gang (all-or-nothing
  /// start) with probability gang_fraction, else malleable (shrinkable
  /// width) with probability malleable_fraction. A malleable job's floor is
  /// max(1, round(tasks * malleable_min_frac)). Both fractions default to 0
  /// and draw nothing — untagged traces are byte-identical to the
  /// pre-packing generator. Tags are drawn from a dedicated RNG stream
  /// forked after every other stream, so tagging a trace never perturbs its
  /// arrivals, shapes, constraints, or tenants.
  double gang_fraction = 0;
  double malleable_fraction = 0;
  double malleable_min_frac = 0.25;
};

/// Named arrival shape applied on top of a profile's MMPP parameters.
/// Extracted from the elasticity/energy benches so every experiment shapes
/// load the same way: "steady" is a flat Poisson stream (no bursts),
/// "diurnal" is a gentle half-duty swell, "flash-crowd" is rare intense
/// minute-scale episodes.
struct LoadShapePreset {
  const char* name;
  double burst_factor;
  double burst_fraction;
  double burst_duration_mean;
};

/// Nullable shape lookup by name ("steady" | "diurnal" | "flash-crowd");
/// returns nullptr on unknown names so CLI frontends can print a usage error
/// instead of aborting. The returned preset has static storage duration.
const LoadShapePreset* FindShapeByName(const std::string& name);

/// Shape lookup by name ("steady" | "diurnal" | "flash-crowd"); aborts on
/// unknown names. A preset field of -1 is a sentinel ApplyLoadShape leaves
/// at the profile's own value.
LoadShapePreset ShapeByName(const std::string& name);

/// Overwrites the MMPP fields of `options` with the preset's, skipping
/// sentinel (-1) fields.
void ApplyLoadShape(const LoadShapePreset& shape, GeneratorOptions& options);

/// Generates a trace from explicit options.
Trace GenerateTrace(const std::string& name, const GeneratorOptions& options);

/// Per-workload presets (Table III rows). `num_jobs`, `num_workers`,
/// `target_load` and `seed` remain caller-tunable on the returned options.
GeneratorOptions GoogleProfile();
GeneratorOptions YahooProfile();
GeneratorOptions ClouderaProfile();

/// Convenience wrappers: preset + generate.
Trace GenerateGoogleTrace(std::size_t num_jobs, std::size_t num_workers,
                          double target_load, std::uint64_t seed);
Trace GenerateYahooTrace(std::size_t num_jobs, std::size_t num_workers,
                         double target_load, std::uint64_t seed);
Trace GenerateClouderaTrace(std::size_t num_jobs, std::size_t num_workers,
                            double target_load, std::uint64_t seed);

/// Nullable preset lookup by name ("google" | "yahoo" | "cloudera");
/// returns nullptr on unknown names so CLI frontends can print a usage error
/// instead of aborting. The returned options have static storage duration.
const GeneratorOptions* FindProfileByName(const std::string& name);

/// Preset lookup by name ("google" | "yahoo" | "cloudera"); aborts on
/// unknown names.
GeneratorOptions ProfileByName(const std::string& name);

/// Analytical expected work (task-seconds) per job under `options` — used
/// for load calibration and exposed for tests.
double ExpectedWorkPerJob(const GeneratorOptions& options);

}  // namespace phoenix::trace
