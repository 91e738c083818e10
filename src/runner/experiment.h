// Experiment harness: trace + cluster + scheduler -> report, with the
// multi-seed averaging the paper uses ("results averaged over five runs to
// ensure consistency", §V-B — the schedulers are stochastic in probe and
// steal target selection).
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "elastic/config.h"
#include "federation/config.h"
#include "metrics/report.h"
#include "power/config.h"
#include "sched/types.h"
#include "trace/trace.h"

namespace phoenix::runner {

/// Observability outputs for one simulation. All fields are off by
/// default, which keeps the scheduler's emit path a single branch.
struct ObsOptions {
  /// Chrome trace_event JSON (open in chrome://tracing or Perfetto).
  std::string trace_chrome;
  /// Newline-delimited JSON event stream.
  std::string trace_jsonl;
  /// Per-heartbeat worker timeseries TSV; Phoenix runs additionally write
  /// the CRV snapshot history next to it as `<path>.crv`.
  std::string timeseries_tsv;
  /// Run the invariant auditor online; the run aborts on any violation.
  bool audit = false;

  bool enabled() const {
    return audit || !trace_chrome.empty() || !trace_jsonl.empty() ||
           !timeseries_tsv.empty();
  }
};

struct RunOptions {
  std::string scheduler = "phoenix";
  sched::SchedulerConfig config;
  ObsOptions obs;
  /// Elastic cluster lifecycle (src/elastic). When enabled, the cluster is
  /// the full machine universe (base + reserve + transient must equal its
  /// size); the run attaches a MembershipView and an ElasticityController.
  /// Disabled (the default) runs are byte-identical to the static fleet.
  elastic::ElasticConfig elastic;
  /// Sharded control plane (src/federation). shards > 1 partitions the
  /// fleet into per-shard heartbeat domains exchanging gossiped digests;
  /// shards == 1 (the default) never constructs the plane and is
  /// byte-identical to the unsharded scheduler.
  federation::FederationConfig federation;
  /// Power management (src/power). When enabled, the run attaches a
  /// PowerManager (machine power model + energy meter) and a
  /// PowerController (park / DVFS / wake on the heartbeat cadence). A
  /// non-elastic run gets an all-active MembershipView so parked is a legal
  /// lifecycle state. Disabled (the default) runs never construct any of it
  /// and are byte-identical to a build without src/power.
  power::PowerConfig power;
};

/// "out.json" + "seed43" -> "out.seed43.json": the tag goes before the
/// extension. Concurrent runs configured with one output path each write
/// their own file this way and never share a stream.
std::string SuffixedPath(const std::string& path, const std::string& tag);

/// "out.json" + seed 43 -> "out.seed43.json" (multi-seed runs write one
/// observability file per seed).
std::string SeedSuffixedPath(const std::string& path, std::uint64_t seed);

/// `obs` with SuffixedPath(..., tag) applied to every output path it names.
ObsOptions SuffixedObs(ObsOptions obs, const std::string& tag);

/// One full simulation. The trace's short cutoff classifies jobs short or
/// long. Aborts if any job fails to complete.
metrics::SimReport RunSimulation(const trace::Trace& trace,
                                 const cluster::Cluster& cluster,
                                 const RunOptions& options);

/// The same workload under `runs` scheduler seeds (config.seed + i).
/// Runs execute concurrently under the runner::ExperimentThreads() budget
/// (see runner/parallel.h); reports() is always ordered by seed offset and
/// bit-identical to a serial execution.
class RepeatedRuns {
 public:
  RepeatedRuns(const trace::Trace& trace, const cluster::Cluster& cluster,
               RunOptions options, std::size_t runs);

  const std::vector<metrics::SimReport>& reports() const { return reports_; }

  /// Mean across runs of the given percentile of response times for the
  /// selected job slice.
  double MeanResponsePercentile(double p, metrics::ClassFilter cf,
                                metrics::ConstraintFilter kf) const;
  /// Same for queuing delays.
  double MeanQueuingPercentile(double p, metrics::ClassFilter cf,
                               metrics::ConstraintFilter kf) const;
  /// Mean measured utilization across runs.
  double MeanUtilization() const;

 private:
  std::vector<metrics::SimReport> reports_;
};

/// Field-wise sum of every report's SchedulerCounters — the aggregation the
/// bench harnesses report per sweep cell (a multi-seed cell sums, never
/// averages, its event counts).
metrics::SchedulerCounters AggregateCounters(
    const std::vector<metrics::SimReport>& reports);

}  // namespace phoenix::runner
