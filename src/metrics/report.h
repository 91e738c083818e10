// Simulation outcome report.
//
// Every experiment in the paper is a view over the same per-job outcomes:
// response time (completion - submit) and queuing delay (mean task wait),
// sliced by job class (short/long, per the scheduler's own classification)
// and constrainedness — plus scheduler-internal counters (Table III's
// reordering statistics) and measured cluster utilization.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/percentile.h"
#include "sim/simtime.h"
#include "trace/job.h"

namespace phoenix::metrics {

struct JobOutcome {
  trace::JobId id = trace::kInvalidJob;
  sim::SimTime submit = 0;
  sim::SimTime completion = 0;
  /// Mean over tasks of (execution start - job submit).
  double queuing_delay = 0;
  /// Max over tasks of (execution start - job submit) — the straggler wait.
  double max_task_wait = 0;
  std::size_t num_tasks = 0;
  bool short_class = true;   // the scheduler's classification
  bool constrained = false;
  /// Tenant tag (0xffff = untenanted) and effective priority class rank
  /// after admission (0 prod, 1 batch, 2 best-effort); raw integers so
  /// metrics does not depend on src/tenancy.
  std::uint16_t tenant = 0xffff;
  std::uint8_t priority = 1;
  /// Distinct racks that executed this job's tasks.
  std::size_t racks_used = 0;
  trace::PlacementPref placement = trace::PlacementPref::kNone;

  double response() const { return completion - submit; }
};

/// Job-slice selectors.
enum class ClassFilter { kAll, kShort, kLong };
enum class ConstraintFilter { kAll, kConstrained, kUnconstrained };

/// The subsystem a SchedulerCounters row belongs to (metrics/counters.def);
/// bench::AddCounters emits one group's rows.
enum class CounterGroup {
  kCore, kPlacement, kFailure, kNet, kElastic,
  kTenancy, kFederation, kPower, kPacking, kWorkflow
};

/// Scheduler-internal counters (Table III and overhead accounting): one
/// field per row of metrics/counters.def, in its order. To add a counter,
/// add its row (and doc comment) there under its subsystem; the struct,
/// runner::AggregateCounters and bench::AddCounters pick it up, and no
/// other list names it. A new row changes every Fingerprint's counter hash
/// even while it reads zero, so the golden table is regenerated with it
/// (scripts/regen_golden.sh).
struct SchedulerCounters {
#define PHOENIX_COUNTER(group, type, name) type name = 0;
#include "metrics/counters.def"
#undef PHOENIX_COUNTER
};

/// Per-tenant outcome slice (empty unless the run configured tenants).
/// Priority is the spec's class rank (0 prod / 1 batch / 2 best-effort).
struct TenantOutcome {
  std::uint16_t id = 0;
  std::string name;
  std::uint8_t priority = 1;
  double quota_share = 0;
  double slo_target = 0;
  std::uint64_t jobs = 0;
  std::uint64_t admits = 0;
  std::uint64_t downgrades = 0;
  std::uint64_t rejects = 0;
  std::uint64_t slo_jobs = 0;
  std::uint64_t slo_attained = 0;
  std::uint64_t slo_at_risk = 0;
  std::uint64_t preemptions_issued = 0;
  std::uint64_t preemptions_suffered = 0;
  /// Executed machine-seconds and the peak committed/budget fraction.
  double usage_seconds = 0;
  double peak_quota_fraction = 0;
  /// Mean / p90 queuing delay over this tenant's jobs.
  double mean_queuing = 0;
  double p90_queuing = 0;

  double SloAttainment() const {
    return slo_jobs == 0 ? 1.0
                         : static_cast<double>(slo_attained) /
                               static_cast<double>(slo_jobs);
  }
};

class SimReport {
 public:
  std::string scheduler_name;
  std::string trace_name;
  std::size_t num_workers = 0;
  std::vector<JobOutcome> jobs;
  SchedulerCounters counters;
  /// Sum over workers of busy (executing) time, seconds.
  double total_busy_time = 0;
  /// Simulated time at which the last task finished.
  sim::SimTime makespan = 0;
  /// Integral of in-service (active + draining) machine count over the run,
  /// machine-seconds. Zero on a static fleet, where every worker is in
  /// service for the whole makespan.
  double active_machine_seconds = 0;
  /// Per-tenant slices and the Jain index over quota-normalized tenant
  /// usage (see TenantUsageJain). Empty / 1.0 without configured tenants.
  std::vector<TenantOutcome> tenants;
  double tenant_fairness_jain = 1.0;
  /// Host-side cost of the run, filled by the runner around engine.Run():
  /// wall-clock seconds spent draining the event queue and the engine's
  /// fired-event count. events_fired is deterministic for a fixed seed;
  /// sim_wall_seconds is a measurement artifact and must never leak into
  /// the byte-stable paper-figure outputs.
  double sim_wall_seconds = 0;
  std::uint64_t events_fired = 0;
  /// Energy accounting (src/power), filled only when a power model is
  /// attached; all zero (and power_enabled false) otherwise, so reports and
  /// JSON emitters can gate the energy fields on one flag.
  bool power_enabled = false;
  /// Fleet energy with every state dwell closed at the report horizon.
  double total_joules = 0;
  /// total_joules / completed tasks.
  double energy_per_task = 0;
  /// total_joules x mean job response time (the classic EDP, J*s).
  double energy_delay_product = 0;
  /// Integral of the number of machines in deep sleep, machine-seconds.
  double sleep_machine_seconds = 0;
  /// Per-SLA-class (priority rank 0 prod / 1 batch / 2 best-effort) energy
  /// attainment: execution joules attributed to each class's completed
  /// tasks and the class task counts. Filled when power and tenancy are
  /// both attached; all zero otherwise.
  std::array<double, 3> class_exec_joules{};
  std::array<std::uint64_t, 3> class_tasks{};
  /// Multi-resource packing (src/packing), filled when packing is enabled.
  bool packing_enabled = false;
  /// Demand-weighted core-seconds executed over fleet core capacity x
  /// makespan — the packed analogue of Utilization().
  double packing_efficiency = 0;
  /// Time-average over heartbeats of the free-core fraction stranded on
  /// machines that are partially busy (capacity neither used nor cleanly
  /// idle — the fragmentation cost of vector packing).
  double fragmentation_time_avg = 0;
  /// Mean seconds from a gang job's arrival to its reservation commit.
  double gang_wait_mean = 0;
  /// DAG workflows / deadline scheduling (src/workflow), filled when the
  /// corresponding gate is on; all zero (and the flags false) otherwise so
  /// emitters can gate the blocks on one boolean each. Deadline attainment
  /// is sliced by SLA class rank (0 prod / 1 batch / 2 best-effort):
  /// class_deadline_jobs counts completed deadline-tracked jobs per class,
  /// class_deadline_attained the subset that finished by their deadline.
  bool dag_enabled = false;
  bool deadline_enabled = false;
  std::array<std::uint64_t, 3> class_deadline_jobs{};
  std::array<std::uint64_t, 3> class_deadline_attained{};

  /// Fraction of deadline-tracked jobs of class `rank` that met their
  /// deadline (1.0 when the class saw no tracked jobs).
  double DeadlineAttainment(std::size_t rank) const {
    return class_deadline_jobs[rank] == 0
               ? 1.0
               : static_cast<double>(class_deadline_attained[rank]) /
                     static_cast<double>(class_deadline_jobs[rank]);
  }

  /// Measured average utilization: busy time over delivered capacity —
  /// workers * makespan for a static fleet, the in-service integral when
  /// the fleet was elastic.
  double Utilization() const;

  /// Response times of jobs matching the filters.
  std::vector<double> ResponseTimes(ClassFilter cf,
                                    ConstraintFilter kf) const;
  /// Queuing delays of jobs matching the filters.
  std::vector<double> QueuingDelays(ClassFilter cf, ConstraintFilter kf) const;

  PercentileSummary ResponseSummary(ClassFilter cf, ConstraintFilter kf) const;
  PercentileSummary QueuingSummary(ClassFilter cf, ConstraintFilter kf) const;

  std::size_t CountJobs(ClassFilter cf, ConstraintFilter kf) const;
  std::size_t CountTasks(ClassFilter cf, ConstraintFilter kf) const;

  /// Structural sanity checks (completion >= submit, etc). Aborts on
  /// violation; called by the runner after each simulation.
  void CheckInvariants() const;
};

/// Exact digest of what a run scheduled, as one line of text:
///   "events=<events_fired> counters=<hex> outcomes=<hex>"
/// `counters` is an FNV-1a over the whole SchedulerCounters block (every
/// field, with no hand-kept list to forget a new one); `outcomes` is an
/// FNV-1a over every JobOutcome field (tenant and priority included), the
/// per-tenant slices, and the report's busy-time, in-service and energy
/// totals. Two runs scheduled identically iff their fingerprints match (up
/// to hash collisions); host wall time never enters it.
std::string Fingerprint(const SimReport& report);

/// speedup = baseline / treatment for a given percentile of short-job
/// response times (how the paper reports "Phoenix improves by N x").
double SpeedupAtPercentile(const SimReport& treatment,
                           const SimReport& baseline, double percentile,
                           ClassFilter cf = ClassFilter::kShort,
                           ConstraintFilter kf = ConstraintFilter::kAll);

}  // namespace phoenix::metrics
