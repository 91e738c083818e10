// scheduler_faceoff: run every scheduler in the registry (or a chosen
// subset) over one workload and print the full comparison — response-time
// percentiles per job slice plus the scheduler-internal counters. This is
// the "kick the tires" harness for anyone evaluating the library.
//
//   ./scheduler_faceoff --profile=google --nodes=300
//   ./scheduler_faceoff --schedulers=phoenix,eagle-c --runs=3
#include <algorithm>
#include <cstdio>

#include "cluster/builder.h"
#include "runner/experiment.h"
#include "runner/registry.h"
#include "trace/generators.h"
#include "util/flags.h"
#include "util/format.h"

using namespace phoenix;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const std::string profile = flags.GetString("profile", "google");
  const std::int64_t nodes_flag = flags.GetInt("nodes", 300);
  // A bad --nodes is reported once, not again through the --jobs default.
  const std::int64_t jobs_flag =
      flags.GetInt("jobs", 50 * std::max<std::int64_t>(nodes_flag, 1));
  const double load = flags.GetDouble("load", 0.85);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::int64_t runs_flag = flags.GetInt("runs", 1);
  const std::string scheduler_list = flags.GetString("schedulers", "");
  flags.ValidateOrExit();
  util::UsageErrors errors;
  errors.RequireCounts(
      {{"nodes", nodes_flag}, {"jobs", jobs_flag}, {"runs", runs_flag}});
  // The trace generator calibrates arrivals to this offered load.
  errors.Require(load > 0 && load < 1.5,
                 util::StrFormat("--load must be in (0, 1.5) (got %g)", load));
  errors.Require(trace::FindProfileByName(profile) != nullptr,
                 "--profile must be google, yahoo or cloudera (got " +
                     profile + ")");
  errors.ExitIfAny();
  const auto nodes = static_cast<std::size_t>(nodes_flag);
  const auto jobs = static_cast<std::size_t>(jobs_flag);
  const auto runs = static_cast<std::size_t>(runs_flag);

  std::vector<std::string> schedulers;
  if (scheduler_list.empty()) {
    schedulers = runner::SchedulerNames();
  } else {
    for (auto& name : util::Split(scheduler_list, ',')) {
      schedulers.push_back(util::Trim(name));
    }
  }

  auto gen = trace::ProfileByName(profile);
  gen.num_jobs = jobs;
  gen.num_workers = nodes;
  gen.target_load = load;
  gen.seed = seed;
  const auto trace = trace::GenerateTrace(profile, gen);
  const auto cluster = cluster::BuildCluster({.num_machines = nodes, .seed = seed});
  const auto stats = trace.ComputeStats();
  std::printf("workload: %s, %zu jobs / %zu tasks on %zu workers "
              "(offered load %.2f), %zu run(s) per scheduler\n\n",
              profile.c_str(), stats.num_jobs, stats.num_tasks, nodes,
              trace.OfferedLoad(nodes), runs);

  util::TextTable perf({"scheduler", "short p50", "short p90", "short p99",
                        "long p99", "constrained p99", "util"});
  util::TextTable internals({"scheduler", "probes", "cancelled", "stolen",
                             "SRPT reorders", "CRV reorders", "relaxed"});
  for (const auto& name : schedulers) {
    runner::RunOptions o;
    o.scheduler = name;
    o.config.seed = seed;
    const runner::RepeatedRuns rr(trace, cluster, o, runs);
    auto pct = [&](double p, metrics::ClassFilter cf,
                   metrics::ConstraintFilter kf) {
      return util::HumanDuration(rr.MeanResponsePercentile(p, cf, kf));
    };
    perf.AddRow({name,
                 pct(50, metrics::ClassFilter::kShort, metrics::ConstraintFilter::kAll),
                 pct(90, metrics::ClassFilter::kShort, metrics::ConstraintFilter::kAll),
                 pct(99, metrics::ClassFilter::kShort, metrics::ConstraintFilter::kAll),
                 pct(99, metrics::ClassFilter::kLong, metrics::ConstraintFilter::kAll),
                 pct(99, metrics::ClassFilter::kShort,
                     metrics::ConstraintFilter::kConstrained),
                 util::StrFormat("%.0f%%", 100 * rr.MeanUtilization())});
    const auto& c = rr.reports()[0].counters;
    internals.AddRow(
        {name, util::WithCommas(static_cast<std::int64_t>(c.probes_sent)),
         util::WithCommas(static_cast<std::int64_t>(c.probes_cancelled)),
         util::WithCommas(static_cast<std::int64_t>(c.tasks_stolen)),
         util::WithCommas(static_cast<std::int64_t>(c.tasks_reordered_srpt)),
         util::WithCommas(static_cast<std::int64_t>(c.tasks_reordered_crv)),
         util::WithCommas(
             static_cast<std::int64_t>(c.soft_constraints_relaxed))});
  }
  std::printf("%s\n%s", perf.ToString().c_str(), internals.ToString().c_str());
  return 0;
}
