// Figure 8: long-job response times (p50/p90/p99) for Phoenix normalized to
// Eagle-C — the "do no harm" check. The paper shows ratios ~1.0 at every
// percentile and cluster size: CRV reordering must not hurt long jobs.
#include <cstdio>

#include "bench/sweep.h"
#include "metrics/fairness.h"

using namespace phoenix;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const auto o = bench::ParseBenchOptions(flags, 300, 2, {},
                                          {.cell_nodes = bench::YahooNodes});
  bench::PrintHeader("Figure 8: Phoenix vs Eagle-C, long jobs", o,
                     "Fig 8a/8b/8c");
  for (const std::string profile : {"yahoo", "cloudera", "google"}) {
    bench::RunNormalizedSweep(profile, "phoenix", "eagle-c",
                              metrics::ClassFilter::kLong, o);
  }

  // The companion fairness claim (§VI-D): reordering must not skew the
  // slowdown distribution of long or unconstrained jobs.
  std::printf("--- fairness (Jain index over per-job slowdowns, google) ---\n");
  {
    const auto trace = bench::MakeTrace("google", o);
    const auto cluster = bench::MakeCluster(o.nodes, o.seed);
    util::TextTable t({"scheduler", "Jain all", "Jain short", "Jain long",
                       "uncon/con slowdown"});
    for (const std::string sched : {"phoenix", "eagle-c"}) {
      const auto report = runner::RunSimulation(
          trace, cluster,
          bench::CellOptions(o, sched, "google-" + sched + "-fairness"));
      const auto f = metrics::ComputeFairness(report, trace);
      t.AddRow({sched, util::StrFormat("%.3f", f.jain_all),
                util::StrFormat("%.3f", f.jain_short),
                util::StrFormat("%.3f", f.jain_long),
                util::StrFormat("%.2f", f.unconstrained_to_constrained)});
    }
    std::printf("%s\n", t.ToString().c_str());
  }
  std::printf("paper shape: ratios stay ~1.0 (+/- noise) at every "
              "percentile — long jobs are unaffected — and Phoenix's "
              "fairness indices match Eagle-C's\n");
  return 0;
}
