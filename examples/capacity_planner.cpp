// capacity_planner: a downstream use of the library beyond reproducing the
// paper — size a heterogeneous cluster against a latency SLO.
//
// Given a workload profile and a p99 response-time SLO for short jobs, the
// planner binary-searches the smallest fleet (in steps of `--step`) on which
// Phoenix meets the SLO, and reports how many machines the Eagle-C baseline
// would need for the same SLO (the "CapEx saved by constraint awareness"
// framing of the paper's introduction).
//
//   ./capacity_planner --profile=google --slo=600 --jobs=10000
#include <cstdio>

#include "cluster/builder.h"
#include "runner/experiment.h"
#include "trace/generators.h"
#include "util/flags.h"
#include "util/format.h"

using namespace phoenix;

namespace {

double ShortJobP99(const std::string& scheduler, const trace::Trace& trace,
                   std::size_t nodes, std::uint64_t seed, std::size_t runs) {
  const auto cluster = cluster::BuildCluster({.num_machines = nodes, .seed = seed});
  runner::RunOptions o;
  o.scheduler = scheduler;
  o.config.seed = seed;
  const runner::RepeatedRuns rr(trace, cluster, o, runs);
  return rr.MeanResponsePercentile(99, metrics::ClassFilter::kShort,
                                   metrics::ConstraintFilter::kAll);
}

/// Smallest fleet in [lo, hi] (multiples of step) meeting the SLO, or 0.
std::size_t MinimumFleet(const std::string& scheduler,
                         const trace::Trace& trace, double slo,
                         std::size_t lo, std::size_t hi, std::size_t step,
                         std::uint64_t seed, std::size_t runs) {
  std::size_t best = 0;
  while (lo <= hi) {
    const std::size_t mid = lo + (hi - lo) / 2 / step * step;
    const double p99 = ShortJobP99(scheduler, trace, mid, seed, runs);
    std::printf("  %-9s fleet %5zu -> short-job p99 %s (%s)\n",
                scheduler.c_str(), mid, util::HumanDuration(p99).c_str(),
                p99 <= slo ? "meets SLO" : "misses");
    if (p99 <= slo) {
      best = mid;
      if (mid < step) break;
      hi = mid - step;
    } else {
      lo = mid + step;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const std::string profile = flags.GetString("profile", "google");
  const double slo = flags.GetDouble("slo", 600.0);  // seconds
  const std::int64_t jobs_flag = flags.GetInt("jobs", 10000);
  const std::int64_t base_flag = flags.GetInt("base-nodes", 200);
  const std::int64_t step_flag = flags.GetInt("step", 20);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::int64_t runs_flag = flags.GetInt("runs", 1);
  flags.ValidateOrExit();
  util::UsageErrors errors;
  errors.RequireCounts({{"jobs", jobs_flag},
                        {"base-nodes", base_flag},
                        {"step", step_flag},
                        {"runs", runs_flag}});
  errors.Require(trace::FindProfileByName(profile) != nullptr,
                 "--profile must be google, yahoo or cloudera (got " +
                     profile + ")");
  errors.ExitIfAny();
  const auto jobs = static_cast<std::size_t>(jobs_flag);
  const auto base = static_cast<std::size_t>(base_flag);
  const auto step = static_cast<std::size_t>(step_flag);
  const auto runs = static_cast<std::size_t>(runs_flag);

  // The workload is fixed (calibrated to the base fleet at 85 % load); the
  // planner asks how much hardware each scheduler needs to serve it.
  auto gen = trace::ProfileByName(profile);
  gen.num_jobs = jobs;
  gen.num_workers = base;
  gen.target_load = 0.85;
  gen.seed = seed;
  const auto trace = trace::GenerateTrace(profile, gen);

  std::printf("capacity planning: %s workload (%zu jobs), short-job p99 SLO "
              "= %s\n\n",
              profile.c_str(), jobs, util::HumanDuration(slo).c_str());

  const std::size_t lo = std::max<std::size_t>(step, base / 2);
  const std::size_t hi = base * 4;
  const std::size_t phoenix_fleet =
      MinimumFleet("phoenix", trace, slo, lo, hi, step, seed, runs);
  const std::size_t eagle_fleet =
      MinimumFleet("eagle-c", trace, slo, lo, hi, step, seed, runs);

  std::printf("\n");
  if (phoenix_fleet == 0 || eagle_fleet == 0) {
    std::printf("SLO not reachable within the searched fleet range "
                "(phoenix: %zu, eagle-c: %zu; 0 = unmet)\n",
                phoenix_fleet, eagle_fleet);
    return 0;
  }
  std::printf("phoenix meets the SLO with %zu workers; eagle-c needs %zu "
              "(%.0f%% more hardware for the same tail SLO)\n",
              phoenix_fleet, eagle_fleet,
              100.0 * (static_cast<double>(eagle_fleet) /
                           static_cast<double>(phoenix_fleet) -
                       1.0));
  return 0;
}
