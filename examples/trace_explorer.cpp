// trace_explorer: synthesize (or load) a workload trace and characterize it
// the way the paper characterizes the Google trace — constraint attribute
// mix (Table II), constraints-per-job demand and node supply (Fig 6),
// burstiness and the short/long split. Optionally archives the trace in the
// phoenix-trace text format for replay elsewhere.
//
//   ./trace_explorer --profile=google --nodes=1000 --jobs=20000
//   ./trace_explorer --in=my.trace            # characterize an existing file
//   ./trace_explorer --profile=yahoo --out=yahoo.trace
#include <cstdio>

#include "cluster/builder.h"
#include "trace/characterize.h"
#include "trace/generators.h"
#include "trace/io.h"
#include "util/flags.h"
#include "util/format.h"
#include "util/histogram.h"

using namespace phoenix;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const std::string profile = flags.GetString("profile", "google");
  const std::int64_t nodes_flag = flags.GetInt("nodes", 1000);
  const std::int64_t jobs_flag = flags.GetInt("jobs", 20000);
  const double load = flags.GetDouble("load", 0.85);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const std::string in_path = flags.GetString("in", "");
  const std::string out_path = flags.GetString("out", "");
  flags.ValidateOrExit();
  util::UsageErrors errors;
  errors.RequireCounts({{"nodes", nodes_flag}, {"jobs", jobs_flag}});
  // The trace generator calibrates arrivals to this offered load.
  errors.Require(load > 0 && load < 1.5,
                 util::StrFormat("--load must be in (0, 1.5) (got %g)", load));
  errors.Require(trace::FindProfileByName(profile) != nullptr,
                 "--profile must be google, yahoo or cloudera (got " +
                     profile + ")");
  errors.ExitIfAny();
  const auto nodes = static_cast<std::size_t>(nodes_flag);
  const auto jobs = static_cast<std::size_t>(jobs_flag);

  trace::Trace trace;
  if (!in_path.empty()) {
    std::string error;
    trace = trace::ReadTraceFile(in_path, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "failed to read %s: %s\n", in_path.c_str(),
                   error.c_str());
      return 1;
    }
  } else {
    auto gen = trace::ProfileByName(profile);
    gen.num_jobs = jobs;
    gen.num_workers = nodes;
    gen.target_load = load;
    gen.seed = seed;
    trace = trace::GenerateTrace(profile, gen);
  }

  const auto stats = trace.ComputeStats();
  std::printf("trace '%s': %s jobs, %s tasks\n", trace.name().c_str(),
              util::WithCommas(static_cast<std::int64_t>(stats.num_jobs)).c_str(),
              util::WithCommas(static_cast<std::int64_t>(stats.num_tasks)).c_str());
  std::printf("  horizon %s, total work %s core-seconds, offered load on "
              "%zu workers: %.2f\n",
              util::HumanDuration(stats.horizon).c_str(),
              util::WithCommas(static_cast<std::int64_t>(stats.total_work)).c_str(),
              nodes, trace.OfferedLoad(nodes));
  std::printf("  short jobs %.1f%% (cutoff %s), constrained tasks %.1f%%, "
              "peak:median arrivals %.0f:1\n\n",
              100 * stats.short_job_fraction,
              util::HumanDuration(trace.short_cutoff()).c_str(),
              100 * stats.constrained_task_fraction,
              stats.peak_to_median_arrival);

  // Table II-style attribute mix.
  const auto usage = trace::CharacterizeConstraints(trace);
  util::TextTable attr_table({"Task Constraint", "% Share", "Occurrence"});
  for (std::size_t a = 0; a < cluster::kNumAttrs; ++a) {
    attr_table.AddRow(
        {std::string(cluster::AttrName(static_cast<cluster::Attr>(a))),
         util::StrFormat("%.2f", usage.shares[a]),
         util::WithCommas(static_cast<std::int64_t>(usage.occurrences[a]))});
  }
  std::printf("%s\n", attr_table.ToString().c_str());

  // Fig 6-style supply/demand against a reference fleet.
  const auto cluster = cluster::BuildCluster({.num_machines = nodes, .seed = seed});
  const auto supply = trace::SupplyCurve(trace, cluster);
  util::TextTable sd({"# Constraints", "Demand of jobs (%)",
                      "Supply of nodes (%)"});
  for (std::size_t k = 0; k < cluster::kMaxConstraintsPerTask; ++k) {
    sd.AddRow({util::StrFormat("%zu", k + 1),
               util::StrFormat("%.1f", usage.demand_pct[k]),
               util::StrFormat("%.1f", supply[k])});
  }
  std::printf("%s\n", sd.ToString().c_str());

  // Task duration histogram (log-ish view via two linear ranges).
  util::LinearHistogram short_hist(0, 120, 24);
  for (const auto& job : trace.jobs()) {
    for (const double d : job.task_durations) short_hist.Add(d);
  }
  std::printf("task duration histogram (seconds; overflow = long tail):\n%s\n",
              short_hist.ToAscii(40).c_str());

  if (!out_path.empty()) {
    trace::WriteTraceFile(trace, out_path);
    std::printf("wrote trace to %s\n", out_path.c_str());
  }
  return 0;
}
