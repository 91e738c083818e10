// Extension benches beyond the paper's figures, covering behaviour the
// paper discusses qualitatively:
//   * §III-A: affinity (spread / colocate) constraints "have a significant
//     impact on task scheduling delay by a factor of 2 to 4" — measured
//     here by slicing response times per placement preference;
//   * fault tolerance: the spread preference exists because machines fail —
//     the failure sweep shows schedulers replaying killed work and the
//     latency cost of rising churn.
#include <cstdio>

#include "bench/common.h"
#include "metrics/fairness.h"
#include "metrics/percentile.h"

using namespace phoenix;

namespace {

metrics::PercentileSummary ByPlacement(const metrics::SimReport& report,
                                       trace::PlacementPref pref) {
  std::vector<double> values;
  for (const auto& job : report.jobs) {
    if (job.placement == pref && job.num_tasks > 1) {
      values.push_back(job.response());
    }
  }
  return metrics::Summarize(values);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const auto o = bench::ParseBenchOptions(flags, 300, 1, {"trace-google"});
  bench::PrintHeader("Extensions: affinity placement + failure injection", o,
                     "paper §III-A (affinity), fault-tolerance motivation");

  {
    std::printf("--- affinity: response by placement preference ---\n");
    util::TextTable t({"scheduler", "affinity mix", "none p99", "spread p99",
                       "colocate p99", "spread viol", "colo misses"});
    for (const double frac : {0.15, 0.30}) {
      const auto trace =
          bench::MakeTrace("google", o, [&](trace::GeneratorOptions& gen) {
            gen.spread_fraction = frac;
            gen.colocate_fraction = frac;
          });
      const auto cluster = bench::MakeCluster(o.nodes, o.seed);
      for (const std::string sched : {"phoenix", "eagle-c"}) {
        const auto report = runner::RunSimulation(
            trace, cluster,
            bench::CellOptions(
                o, sched,
                util::StrFormat("%s-affinity%.0f", sched.c_str(), 100 * frac)));
        t.AddRow({sched, util::StrFormat("%.0f%%", 100 * frac),
                  util::HumanDuration(
                      ByPlacement(report, trace::PlacementPref::kNone).p99),
                  util::HumanDuration(
                      ByPlacement(report, trace::PlacementPref::kSpread).p99),
                  util::HumanDuration(
                      ByPlacement(report, trace::PlacementPref::kColocate).p99),
                  util::WithCommas(static_cast<std::int64_t>(
                      report.counters.placement_spread_violations)),
                  util::WithCommas(static_cast<std::int64_t>(
                      report.counters.placement_colocate_misses))});
      }
    }
    std::printf("%s\n", t.ToString().c_str());
    std::printf("expected shape: affinity-constrained jobs respond slower "
                "than unconstrained ones (paper: 2-4x scheduling-delay "
                "impact); colocate pays more than spread under load\n\n");
  }

  {
    std::printf("--- failure injection sweep (phoenix vs eagle-c) ---\n");
    const auto trace = bench::MakeTrace("google", o);
    const auto cluster = bench::MakeCluster(o.nodes, o.seed);
    util::TextTable t({"scheduler", "MTBF/machine", "failures", "rescheduled",
                       "short p99", "long p99", "Jain (all)"});
    for (const double mtbf : {0.0, 20000.0, 5000.0, 1500.0}) {
      for (const std::string sched : {"phoenix", "eagle-c"}) {
        runner::RunOptions ro = bench::CellOptions(
            o, sched, util::StrFormat("%s-mtbf%.0f", sched.c_str(), mtbf));
        ro.config.machine_mtbf = mtbf;
        ro.config.machine_mttr = 300.0;
        const auto report = runner::RunSimulation(trace, cluster, ro);
        const auto fairness = metrics::ComputeFairness(report, trace);
        t.AddRow(
            {sched, mtbf == 0 ? "off" : util::HumanDuration(mtbf),
             util::WithCommas(
                 static_cast<std::int64_t>(report.counters.machine_failures)),
             util::WithCommas(static_cast<std::int64_t>(
                 report.counters.tasks_rescheduled_failure)),
             util::HumanDuration(
                 report.ResponseSummary(metrics::ClassFilter::kShort,
                                        metrics::ConstraintFilter::kAll)
                     .p99),
             util::HumanDuration(
                 report.ResponseSummary(metrics::ClassFilter::kLong,
                                        metrics::ConstraintFilter::kAll)
                     .p99),
             util::StrFormat("%.3f", fairness.jain_all)});
      }
    }
    std::printf("%s\n", t.ToString().c_str());
    std::printf("expected shape: every job completes at every churn level; "
                "tail latency and rescheduling volume rise as MTBF falls; "
                "Phoenix keeps its edge under churn\n");
  }
  return 0;
}
