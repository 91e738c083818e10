// Shared node-count sweep for Figures 7, 8, 10 and 11.
//
// The paper sweeps the fleet from 15,000 to 19,000 workers against a fixed
// trace, so average utilization falls (86 % -> 43 %) and the normalized
// response-time ratio converges toward 1. We replay the same experiment:
// one trace calibrated to the base fleet, replayed on scaled fleets.
//
// The (treatment, baseline) x fleet-multiplier grid is embarrassingly
// parallel, so cells run concurrently under the --threads budget. Cells
// write into slots indexed by grid position, and the table is printed only
// after the join, in grid order — byte-identical to a serial run.
// Observability outputs (--trace-out, --trace-jsonl, --timeseries) get one
// file per cell, tagged <profile>-<scheduler>-x<multiplier>.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.h"
#include "metrics/percentile.h"

namespace phoenix::bench {

inline const std::vector<double>& SweepMultipliers() {
  static const std::vector<double> m = {1.0, 1.15, 1.35, 1.6, 2.0};
  return m;
}

/// Runs `treatment` and `baseline` over `profile`'s trace across the fleet
/// sweep and prints percentiles of `cf` jobs normalized to the baseline
/// (lower is better — the paper's bar height).
inline void RunNormalizedSweep(const std::string& profile,
                               const std::string& treatment,
                               const std::string& baseline,
                               metrics::ClassFilter cf,
                               const BenchOptions& o) {
  auto opts = o;
  if (profile == "yahoo") {
    opts.nodes = YahooNodes(o.nodes);
    opts.jobs = 50 * opts.nodes;
  }
  const auto trace = MakeTrace(profile, opts);
  std::printf("--- %s trace (base fleet %zu workers) ---\n", profile.c_str(),
              opts.nodes);

  // One cluster per multiplier, shared (const) by that multiplier's two
  // cells; one result slot per (multiplier, scheduler) cell.
  const auto& mults = SweepMultipliers();
  std::vector<std::size_t> fleet_sizes;
  std::vector<cluster::Cluster> clusters;
  fleet_sizes.reserve(mults.size());
  clusters.reserve(mults.size());
  for (const double mult : mults) {
    fleet_sizes.push_back(
        static_cast<std::size_t>(static_cast<double>(opts.nodes) * mult));
    clusters.push_back(MakeCluster(fleet_sizes.back(), opts.seed));
  }
  if (runner::ExperimentThreads() > 1) {
    for (const auto& cl : clusters) runner::PrewarmClusterForTrace(cl, trace);
  }
  std::vector<std::optional<runner::RepeatedRuns>> cells(2 * mults.size());
  runner::ParallelExperimentLoop(cells.size(), [&](std::size_t i) {
    const auto& scheduler = (i % 2 == 0) ? treatment : baseline;
    // Cells run concurrently, so each writes its own observability files:
    // "trace.json" -> "trace.google-phoenix-x1.15.json".
    cells[i].emplace(Run(scheduler, trace, clusters[i / 2], opts,
                         profile + "-" + scheduler + "-x" +
                             util::StrFormat("%g", mults[i / 2])));
  });

  // Join done: emit the table serially, in grid order.
  util::TextTable table({"fleet", "~paper nodes", "avg util",
                         "p50 (norm)", "p90 (norm)", "p99 (norm)",
                         "p99 " + treatment, "p99 " + baseline});
  for (std::size_t m = 0; m < mults.size(); ++m) {
    const std::size_t nodes = fleet_sizes[m];
    const auto& t = *cells[2 * m];
    const auto& b = *cells[2 * m + 1];
    auto norm = [&](double p) {
      const double tv =
          t.MeanResponsePercentile(p, cf, metrics::ConstraintFilter::kAll);
      const double bv =
          b.MeanResponsePercentile(p, cf, metrics::ConstraintFilter::kAll);
      return bv > 0 ? tv / bv : 0.0;
    };
    const double util =
        (t.MeanUtilization() + b.MeanUtilization()) / 2;
    const double t99 =
        t.MeanResponsePercentile(99, cf, metrics::ConstraintFilter::kAll);
    const double b99 =
        b.MeanResponsePercentile(99, cf, metrics::ConstraintFilter::kAll);
    table.AddRow(
        {util::WithCommas(static_cast<std::int64_t>(nodes)),
         util::WithCommas(static_cast<std::int64_t>(15000 * mults[m])),
         util::StrFormat("%.0f%%", 100 * util),
         util::StrFormat("%.2f", norm(50)), util::StrFormat("%.2f", norm(90)),
         util::StrFormat("%.2f", norm(99)), util::HumanDuration(t99),
         util::HumanDuration(b99)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace phoenix::bench
