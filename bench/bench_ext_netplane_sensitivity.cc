// Extension bench: control-plane sensitivity of probe-based scheduling.
//
// The paper assumes a fixed 0.5 ms control-plane transit and lossless
// delivery. This sweep varies both — one-way latency x message drop rate,
// with the RPC retry layer on — and reports the short-job p90 *queuing
// delay* slowdown against the ideal cell (nominal latency, zero loss).
// Queuing delay is the metric that contains the control plane: every short
// task pays probe transit + a late-binding fetch round trip before service,
// so it resolves millisecond transits and timeout-priced drops that
// end-to-end response (dominated by service time and queueing behind long
// work at high load) averages away. The net/rpc counter columns show the
// retry traffic buying the zero-lost-jobs guarantee.
//
// Default --load is below the paper sweeps' 0.85: at deep congestion,
// seed-to-seed queueing noise is the same order as the control-plane
// effect; a moderately loaded fleet isolates it.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "metrics/percentile.h"

using namespace phoenix;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  // Multi-seed by default: single-run queueing noise is the same order as
  // the control-plane effect under study, so cells are seed-averaged.
  auto o = bench::ParseBenchOptions(flags, 200, 3, {"net-latency", "net-drop"});
  if (!flags.Provided("load")) o.load = 0.5;
  bench::PrintHeader("Extension: control-plane latency/loss sensitivity", o,
                     "paper §V-A assumption (0.5 ms lossless control plane)");

  const auto trace = bench::MakeTrace("google", o);
  const auto cluster = bench::MakeCluster(o.nodes, o.seed);
  // The latency axis spans datacenter-normal (the paper's 0.5 ms) to
  // degraded-WAN scale: the interesting question is where the control plane
  // *starts* to show against seconds-scale queueing, and the answer — not
  // until transit approaches task-duration scale — is what justifies the
  // paper treating it as a constant.
  const std::vector<double> latencies = {0.5 * sim::kMillisecond,
                                         50.0 * sim::kMillisecond,
                                         250.0 * sim::kMillisecond};
  const std::vector<double> drops = {0.0, 0.01, 0.05, 0.10};

  for (const std::string sched : {"phoenix", "eagle-c"}) {
    std::printf("--- %s ---\n", sched.c_str());
    util::TextTable t({"one-way", "drop", "short p90 qdelay", "slowdown",
                       "sent", "dropped", "retries", "rpc fails"});
    double baseline = 0;
    for (const double latency : latencies) {
      for (const double drop : drops) {
        runner::RunOptions ro = bench::CellOptions(
            o, sched,
            util::StrFormat("%s-lat%gms-drop%g", sched.c_str(),
                            latency / sim::kMillisecond, drop));
        ro.config.net.one_way = latency;
        ro.config.net.drop_rate = drop;
        // Latency spread only matters once chaos is on; keep the ideal cell
        // on the byte-identical fast path so the baseline is the paper's.
        if (drop > 0 && ro.config.net.model == net::LatencyModel::kConstant) {
          ro.config.net.model = net::LatencyModel::kLognormal;
        }
        const runner::RepeatedRuns runs(trace, cluster, ro, o.runs);
        const double p90 = runs.MeanQueuingPercentile(
            90, metrics::ClassFilter::kShort, metrics::ConstraintFilter::kAll);
        const auto c = runner::AggregateCounters(runs.reports());
        const std::uint64_t sent = c.net_messages_sent;
        const std::uint64_t dropped = c.net_messages_dropped;
        const std::uint64_t retries = c.rpc_retries;
        const std::uint64_t failures = c.rpc_failures;
        if (baseline == 0) baseline = p90;  // first cell: nominal, lossless
        const double slowdown = p90 / baseline;
        t.AddRow({util::StrFormat("%.1fms", latency / sim::kMillisecond),
                  util::StrFormat("%.0f%%", 100 * drop),
                  util::HumanDuration(p90),
                  util::StrFormat("%.2fx", slowdown),
                  util::WithCommas(static_cast<std::int64_t>(sent)),
                  util::WithCommas(static_cast<std::int64_t>(dropped)),
                  util::WithCommas(static_cast<std::int64_t>(retries)),
                  util::WithCommas(static_cast<std::int64_t>(failures))});
      }
    }
    std::printf("%s\n", t.ToString().c_str());
  }
  std::printf(
      "expected shape: queuing-delay slowdown grows along both axes — "
      "latency multiplies the per-task transit floor, drops add "
      "timeout-priced retries to the tail — and jobs are never lost, only "
      "delayed\n");
  return 0;
}
