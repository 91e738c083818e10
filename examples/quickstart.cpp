// Quickstart: build a heterogeneous cluster, synthesize a Google-like
// constrained workload, run Phoenix and Eagle-C on it, and compare short-job
// tail latency — the paper's headline experiment in ~60 lines of API use.
//
//   ./quickstart [--nodes=600] [--jobs=6000] [--seed=42]
#include <cstdio>

#include "cluster/builder.h"
#include "runner/experiment.h"
#include "trace/generators.h"
#include "util/flags.h"
#include "util/format.h"

int main(int argc, char** argv) {
  phoenix::util::Flags flags;
  flags.Parse(argc, argv);
  const std::int64_t nodes_flag = flags.GetInt("nodes", 600);
  const std::int64_t jobs_flag = flags.GetInt("jobs", 6000);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  flags.ValidateOrExit();
  phoenix::util::UsageErrors errors;
  errors.RequireCounts({{"nodes", nodes_flag}, {"jobs", jobs_flag}});
  errors.ExitIfAny();
  const auto nodes = static_cast<std::size_t>(nodes_flag);
  const auto jobs = static_cast<std::size_t>(jobs_flag);

  // 1. A heterogeneous fleet: machine attributes (ISA, cores, NIC speed,
  //    disks, kernel, platform, clock, memory) drawn from a skewed catalog.
  phoenix::cluster::FleetOptions fleet;
  fleet.num_machines = nodes;
  fleet.seed = seed;
  const phoenix::cluster::Cluster cluster = phoenix::cluster::BuildCluster(fleet);

  // 2. A Google-profile trace: bursty arrivals, Pareto task durations,
  //    ~50 % of tasks constrained, calibrated to ~85 % offered load.
  const phoenix::trace::Trace trace =
      phoenix::trace::GenerateGoogleTrace(jobs, nodes, 0.85, seed);
  const auto stats = trace.ComputeStats();
  std::printf("trace: %zu jobs, %zu tasks, %.0f%% short, %.0f%% constrained, "
              "peak:median arrivals %.0f:1\n",
              stats.num_jobs, stats.num_tasks, 100 * stats.short_job_fraction,
              100 * stats.constrained_task_fraction,
              stats.peak_to_median_arrival);

  // 3. Run both schedulers on the identical workload.
  using phoenix::metrics::ClassFilter;
  using phoenix::metrics::ConstraintFilter;
  phoenix::util::TextTable table(
      {"scheduler", "util", "short p50", "short p90", "short p99",
       "long p99", "CRV reorders"});
  phoenix::metrics::SimReport phoenix_report, eagle_report;
  for (const std::string& name : {std::string("phoenix"), std::string("eagle-c")}) {
    phoenix::runner::RunOptions options;
    options.scheduler = name;
    options.config.seed = seed;
    const auto report = phoenix::runner::RunSimulation(trace, cluster, options);
    const auto s = report.ResponseSummary(ClassFilter::kShort,
                                          ConstraintFilter::kAll);
    const auto l = report.ResponseSummary(ClassFilter::kLong,
                                          ConstraintFilter::kAll);
    table.AddRow({name, phoenix::util::StrFormat("%.0f%%", 100 * report.Utilization()),
                  phoenix::util::HumanDuration(s.p50),
                  phoenix::util::HumanDuration(s.p90),
                  phoenix::util::HumanDuration(s.p99),
                  phoenix::util::HumanDuration(l.p99),
                  phoenix::util::WithCommas(static_cast<std::int64_t>(
                      report.counters.tasks_reordered_crv))});
    if (name == "phoenix") phoenix_report = report; else eagle_report = report;
  }
  std::printf("%s", table.ToString().c_str());

  const double speedup = phoenix::metrics::SpeedupAtPercentile(
      phoenix_report, eagle_report, 99, ClassFilter::kShort,
      ConstraintFilter::kAll);
  std::printf("\nPhoenix vs Eagle-C, short-job p99 response: %.2fx %s\n",
              speedup, speedup >= 1 ? "faster" : "slower");
  return 0;
}
