// Figure 4: short-job response times of constrained jobs relative to
// unconstrained jobs (p50/p90/p99) under Eagle-C, for all three traces.
//
// The paper normalizes unconstrained to constrained response times and
// reports a uniform ~1.7x inflation at the 99th percentile.
#include <cstdio>

#include "bench/common.h"

using namespace phoenix;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const auto o = bench::ParseBenchOptions(flags, 300, 1, {},
                                          {.cell_nodes = bench::YahooNodes});
  bench::PrintHeader(
      "Figure 4: constrained vs unconstrained short-job response (Eagle-C)",
      o, "Fig 4a/4b/4c");

  util::TextTable table({"Trace", "p50 ratio", "p90 ratio", "p99 ratio",
                         "constrained p99", "unconstrained p99"});
  for (const std::string profile : {"yahoo", "cloudera", "google"}) {
    auto opts = o;
    if (profile == "yahoo") {
      opts.nodes = bench::YahooNodes(o.nodes);
      opts.jobs = 50 * opts.nodes;
    }
    const auto trace = bench::MakeTrace(profile, opts);
    const auto cluster = bench::MakeCluster(opts.nodes, opts.seed);
    const auto runs = bench::Run("eagle-c", trace, cluster, opts, profile);

    auto at = [&](double p, metrics::ConstraintFilter kf) {
      return runs.MeanResponsePercentile(p, metrics::ClassFilter::kShort, kf);
    };
    const double c50 = at(50, metrics::ConstraintFilter::kConstrained);
    const double u50 = at(50, metrics::ConstraintFilter::kUnconstrained);
    const double c90 = at(90, metrics::ConstraintFilter::kConstrained);
    const double u90 = at(90, metrics::ConstraintFilter::kUnconstrained);
    const double c99 = at(99, metrics::ConstraintFilter::kConstrained);
    const double u99 = at(99, metrics::ConstraintFilter::kUnconstrained);
    table.AddRow({profile, util::StrFormat("%.2fx", c50 / u50),
                  util::StrFormat("%.2fx", c90 / u90),
                  util::StrFormat("%.2fx", c99 / u99),
                  util::HumanDuration(c99), util::HumanDuration(u99)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("paper shape: constrained short jobs run ~1.7x slower at p99 "
              "uniformly across traces\n");
  return 0;
}
