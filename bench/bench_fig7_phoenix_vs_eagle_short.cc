// Figure 7: short-job response times (p50/p90/p99) for Phoenix normalized
// to Eagle-C, across cluster sizes (utilization sweep), for all three
// traces. Lower is better; the paper reports Phoenix taking ~52 % of
// Eagle-C's p99 (1.9x) at peak utilization, converging to parity as the
// cluster grows.
#include <cstdio>

#include "bench/sweep.h"

using namespace phoenix;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const auto o = bench::ParseBenchOptions(flags, 300, 2, {},
                                          {.cell_nodes = bench::YahooNodes});
  bench::PrintHeader("Figure 7: Phoenix vs Eagle-C, short jobs", o,
                     "Fig 7a/7b/7c");
  for (const std::string profile : {"yahoo", "cloudera", "google"}) {
    bench::RunNormalizedSweep(profile, "phoenix", "eagle-c",
                              metrics::ClassFilter::kShort, o);
  }
  std::printf("paper shape: normalized p99 ~0.5 at the highest utilization, "
              "rising toward ~1.0 as the fleet grows; p50/p90 show smaller "
              "gains\n");
  return 0;
}
