// Table III: CRV reordering statistics per trace.
//
// Runs Phoenix over all three workloads and reports, per trace, the node
// count, constrained/unconstrained task counts, tasks reordered by the CRV
// discipline and the short-job share — the same columns as the paper's
// Table III. Node counts scale with --nodes (the paper used Yahoo@5,000 and
// Cloudera/Google@15,000; the same 1:3 proportion is preserved here).
#include <cstdio>

#include "bench/common.h"

using namespace phoenix;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const auto o = bench::ParseBenchOptions(flags, 300, 1, {},
                                          {.cell_nodes = bench::YahooNodes});
  bench::PrintHeader("Table III: CRV reordering statistics", o,
                     "Table III (Phoenix over Yahoo/Cloudera/Google)");

  util::TextTable table({"Workload", "Nodes", "Constrained Tasks",
                         "Unconstrained Tasks", "Reordered tasks",
                         "Short jobs"});
  for (const std::string profile : {"yahoo", "cloudera", "google"}) {
    // Preserve the paper's fleet proportions: Yahoo ran on a third of the
    // nodes the other traces used.
    auto opts = o;
    if (profile == "yahoo") {
      opts.nodes = bench::YahooNodes(o.nodes);
      opts.jobs = 50 * opts.nodes;
    }
    const auto trace = bench::MakeTrace(profile, opts);
    const auto cluster = bench::MakeCluster(opts.nodes, opts.seed);
    const auto runs = bench::Run("phoenix", trace, cluster, opts, profile);
    const auto& report = runs.reports()[0];
    const auto stats = trace.ComputeStats();
    const auto reordered = report.counters.tasks_reordered_crv;
    table.AddRow(
        {profile, util::WithCommas(static_cast<std::int64_t>(opts.nodes)),
         util::WithCommas(static_cast<std::int64_t>(stats.constrained_tasks)),
         util::WithCommas(static_cast<std::int64_t>(stats.num_tasks -
                                                    stats.constrained_tasks)),
         util::WithCommas(static_cast<std::int64_t>(reordered)),
         util::StrFormat("%.2f%%", 100 * stats.short_job_fraction)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("paper shape: ~50%% of tasks constrained; reordered tasks are "
              "a small fraction of the constrained ones; short jobs "
              ">= 90%%\n");
  return 0;
}
