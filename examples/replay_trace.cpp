// replay_trace: run a phoenix-trace file (yours or a synthesized one)
// through any registered scheduler and dump per-job outcomes as CSV —
// the batch-analysis entry point for downstream users who want to study a
// workload with their own tooling.
//
//   ./trace_explorer --profile=google --out=g.trace
//   ./replay_trace g.trace --scheduler=phoenix --nodes=300 --csv=out.csv
#include <cstdio>
#include <fstream>

#include "cluster/builder.h"
#include "runner/experiment.h"
#include "trace/io.h"
#include "util/flags.h"
#include "util/format.h"

using namespace phoenix;

namespace {

const char* PlacementName(trace::PlacementPref pref) {
  switch (pref) {
    case trace::PlacementPref::kNone: return "none";
    case trace::PlacementPref::kSpread: return "spread";
    case trace::PlacementPref::kColocate: return "colocate";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const std::string scheduler = flags.GetString("scheduler", "phoenix");
  const std::int64_t nodes_flag = flags.GetInt("nodes", 300);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::string csv_path = flags.GetString("csv", "");
  const double mtbf = flags.GetDouble("mtbf", 0.0);
  const double mttr = flags.GetDouble("mttr", 600.0);
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string trace_jsonl = flags.GetString("trace-jsonl", "");
  const std::string timeseries = flags.GetString("timeseries", "");
  const bool audit = flags.GetBool("audit", false);
  flags.ValidateOrExit();
  util::UsageErrors errors;
  errors.RequireCounts({{"nodes", nodes_flag}});
  errors.ExitIfAny();
  const auto nodes = static_cast<std::size_t>(nodes_flag);
  if (flags.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: replay_trace <trace-file> [--scheduler=phoenix] "
                 "[--nodes=N] [--seed=N] [--csv=out.csv] [--mtbf=S --mttr=S]\n"
                 "  observability: [--trace-out=chrome.json] "
                 "[--trace-jsonl=events.jsonl] [--timeseries=hb.tsv] "
                 "[--audit]\n");
    return 1;
  }

  std::string error;
  const trace::Trace trace = trace::ReadTraceFile(flags.positional()[0], &error);
  if (!error.empty()) {
    std::fprintf(stderr, "failed to load trace: %s\n", error.c_str());
    return 1;
  }
  const auto stats = trace.ComputeStats();
  std::printf("loaded '%s': %zu jobs / %zu tasks; replaying on %zu workers "
              "under %s (offered load %.2f)\n",
              trace.name().c_str(), stats.num_jobs, stats.num_tasks, nodes,
              scheduler.c_str(), trace.OfferedLoad(nodes));

  const auto cluster = cluster::BuildCluster({.num_machines = nodes, .seed = seed});
  runner::RunOptions options;
  options.scheduler = scheduler;
  options.config.seed = seed;
  options.config.machine_mtbf = mtbf;
  options.config.machine_mttr = mttr;
  options.obs.trace_chrome = trace_out;
  options.obs.trace_jsonl = trace_jsonl;
  options.obs.timeseries_tsv = timeseries;
  options.obs.audit = audit;
  const auto report = runner::RunSimulation(trace, cluster, options);

  const auto s = report.ResponseSummary(metrics::ClassFilter::kShort,
                                        metrics::ConstraintFilter::kAll);
  std::printf("short jobs: p50 %s  p90 %s  p99 %s; utilization %.0f%%\n",
              util::HumanDuration(s.p50).c_str(),
              util::HumanDuration(s.p90).c_str(),
              util::HumanDuration(s.p99).c_str(),
              100 * report.Utilization());

  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    if (!csv.good()) {
      std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
      return 1;
    }
    csv << "job,submit,completion,response,queuing_delay,max_task_wait,"
           "tasks,short,constrained,placement,racks_used\n";
    for (const auto& job : report.jobs) {
      csv << job.id << ',' << job.submit << ',' << job.completion << ','
          << job.response() << ',' << job.queuing_delay << ','
          << job.max_task_wait << ',' << job.num_tasks << ','
          << (job.short_class ? 1 : 0) << ',' << (job.constrained ? 1 : 0)
          << ',' << PlacementName(job.placement) << ',' << job.racks_used
          << '\n';
    }
    std::printf("wrote %zu job outcomes to %s\n", report.jobs.size(),
                csv_path.c_str());
  }
  return 0;
}
