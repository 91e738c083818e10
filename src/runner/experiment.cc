#include "runner/experiment.h"

#include <chrono>
#include <memory>

#include "cluster/membership.h"
#include "elastic/controller.h"
#include "obs/audit.h"
#include "obs/heartbeat_log.h"
#include "obs/trace_writer.h"
#include "power/controller.h"
#include "power/manager.h"
#include "runner/parallel.h"
#include "runner/registry.h"
#include "sim/engine.h"
#include "util/check.h"

namespace phoenix::runner {

std::string SuffixedPath(const std::string& path, const std::string& tag) {
  const std::string suffix = "." + tag;
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + suffix;
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

std::string SeedSuffixedPath(const std::string& path, std::uint64_t seed) {
  return SuffixedPath(path, "seed" + std::to_string(seed));
}

ObsOptions SuffixedObs(ObsOptions obs, const std::string& tag) {
  for (std::string* path :
       {&obs.trace_chrome, &obs.trace_jsonl, &obs.timeseries_tsv}) {
    if (!path->empty()) *path = SuffixedPath(*path, tag);
  }
  return obs;
}

metrics::SimReport RunSimulation(const trace::Trace& trace,
                                 const cluster::Cluster& cluster,
                                 const RunOptions& options) {
  sim::Engine engine;
  auto scheduler =
      MakeScheduler(options.scheduler, engine, cluster, options.config);

  // Per-run sinks: each simulation owns its writers (and files), so the
  // multi-seed fan-out needs no cross-thread coordination beyond the
  // writers' own locks.
  std::unique_ptr<obs::JsonlWriter> jsonl;
  std::unique_ptr<obs::ChromeTraceWriter> chrome;
  std::unique_ptr<obs::HeartbeatLog> heartbeat_log;
  std::unique_ptr<obs::InvariantAuditor> auditor;
  const ObsOptions& obs_opts = options.obs;
  if (!obs_opts.trace_jsonl.empty()) {
    jsonl = std::make_unique<obs::JsonlWriter>(obs_opts.trace_jsonl);
    PHOENIX_CHECK_MSG(jsonl->ok(), "cannot open --trace-jsonl output");
    scheduler->AttachSink(jsonl.get());
  }
  if (!obs_opts.trace_chrome.empty()) {
    chrome = std::make_unique<obs::ChromeTraceWriter>(obs_opts.trace_chrome);
    PHOENIX_CHECK_MSG(chrome->ok(), "cannot open --trace-out output");
    scheduler->AttachSink(chrome.get());
  }
  if (!obs_opts.timeseries_tsv.empty()) {
    heartbeat_log = std::make_unique<obs::HeartbeatLog>();
    scheduler->AttachSink(heartbeat_log.get());
  }
  if (obs_opts.audit) {
    auditor = std::make_unique<obs::InvariantAuditor>();
    scheduler->AttachAuditor(auditor.get());
  }

  // Elastic runs own a per-run membership view + controller over the shared
  // immutable cluster universe (Cluster's caches stay read-shared; the
  // mutable state lives in the view).
  std::unique_ptr<cluster::MembershipView> membership;
  std::unique_ptr<elastic::ElasticityController> controller;
  if (options.elastic.enabled) {
    PHOENIX_CHECK_MSG(options.elastic.universe_size() == cluster.size(),
                      "elastic base+reserve+transient != cluster size");
    membership = std::make_unique<cluster::MembershipView>(
        cluster, options.elastic.base_machines);
    scheduler->SetMembership(membership.get());
    controller = std::make_unique<elastic::ElasticityController>(
        engine, *scheduler, *membership, options.elastic);
  }

  // The federation plane must exist before SubmitTrace: the trace submit
  // schedules one heartbeat chain per shard and starts the gossip timers.
  if (options.federation.enabled()) {
    scheduler->EnableFederation(options.federation);
  }

  // Power management rides on a membership view (parked is a lifecycle
  // state). A non-elastic powered run gets an all-active view over the full
  // fleet — CountAdmissible over every machine, identical to the static
  // world until the controller parks something.
  std::unique_ptr<power::PowerManager> power_mgr;
  std::unique_ptr<power::PowerController> power_ctl;
  if (options.power.enabled) {
    if (!membership) {
      membership =
          std::make_unique<cluster::MembershipView>(cluster, cluster.size());
      scheduler->SetMembership(membership.get());
    }
    power_mgr =
        std::make_unique<power::PowerManager>(cluster, options.power);
    scheduler->SetPower(power_mgr.get());
    // Elastic runs keep the transient pool out of the park policy's hands:
    // lease top-up and parking would otherwise fight over the same ids.
    const std::size_t park_limit =
        options.elastic.enabled
            ? options.elastic.base_machines + options.elastic.reserve_machines
            : cluster.size();
    power_ctl = std::make_unique<power::PowerController>(
        engine, *scheduler, *membership, *power_mgr, park_limit);
  }

  scheduler->SubmitTrace(trace);
  if (controller) controller->Start();
  if (power_ctl) power_ctl->Start();
  const auto wall_start = std::chrono::steady_clock::now();
  engine.Run();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  PHOENIX_CHECK_MSG(engine.Empty(), "event queue failed to drain");
  scheduler->FinalAudit();
  auto report = scheduler->BuildReport();
  report.sim_wall_seconds = wall_seconds;
  report.events_fired = engine.events_fired();
  if (power_ctl) {
    const auto& stats = power_ctl->stats();
    report.counters.power_park_vetoes_coverage = stats.park_vetoes_coverage;
    report.counters.power_park_vetoes_floor = stats.park_vetoes_floor;
    report.counters.power_wake_decisions = stats.wake_decisions;
  }

  if (jsonl) jsonl->Flush();
  if (chrome) chrome->Flush();
  if (heartbeat_log) {
    PHOENIX_CHECK_MSG(heartbeat_log->WriteTsv(obs_opts.timeseries_tsv),
                      "cannot write --timeseries output");
    if (heartbeat_log->has_crv_history()) {
      heartbeat_log->WriteCrvTsv(obs_opts.timeseries_tsv + ".crv");
    }
  }
  if (auditor) {
    PHOENIX_CHECK_MSG(auditor->ok(), auditor->Summary().c_str());
  }
  return report;
}

RepeatedRuns::RepeatedRuns(const trace::Trace& trace,
                           const cluster::Cluster& cluster, RunOptions options,
                           std::size_t runs) {
  PHOENIX_CHECK(runs > 0);
  reports_.resize(runs);
  const std::uint64_t base_seed = options.config.seed;
  // Each run owns its engine, scheduler and RNG (seed + i) and writes only
  // its own report slot, so the fan-out is deterministic for any thread
  // count. The cluster is the only shared state; its eligibility caches are
  // pre-warmed here so concurrent runs stay on the shared-lock read path.
  if (runs > 1 && ExperimentThreads() > 1 && !InParallelExperimentLoop()) {
    PrewarmClusterForTrace(cluster, trace);
  }
  ParallelExperimentLoop(runs, [&](std::size_t i) {
    RunOptions run_options = options;
    run_options.config.seed = base_seed + i;
    if (runs > 1) {
      // One observability file set per seed: concurrent runs must not
      // interleave into a shared stream.
      run_options.obs =
          SuffixedObs(run_options.obs,
                      "seed" + std::to_string(run_options.config.seed));
    }
    reports_[i] = RunSimulation(trace, cluster, run_options);
  });
}

double RepeatedRuns::MeanResponsePercentile(
    double p, metrics::ClassFilter cf, metrics::ConstraintFilter kf) const {
  double sum = 0;
  for (const auto& report : reports_) {
    auto values = report.ResponseTimes(cf, kf);
    sum += metrics::Percentile(values, p);
  }
  return sum / static_cast<double>(reports_.size());
}

double RepeatedRuns::MeanQueuingPercentile(double p, metrics::ClassFilter cf,
                                           metrics::ConstraintFilter kf) const {
  double sum = 0;
  for (const auto& report : reports_) {
    auto values = report.QueuingDelays(cf, kf);
    sum += metrics::Percentile(values, p);
  }
  return sum / static_cast<double>(reports_.size());
}

double RepeatedRuns::MeanUtilization() const {
  double sum = 0;
  for (const auto& report : reports_) sum += report.Utilization();
  return sum / static_cast<double>(reports_.size());
}

metrics::SchedulerCounters AggregateCounters(
    const std::vector<metrics::SimReport>& reports) {
  metrics::SchedulerCounters sum;
  for (const auto& r : reports) {
#define PHOENIX_COUNTER(group, type, name) sum.name += r.counters.name;
#include "metrics/counters.def"
#undef PHOENIX_COUNTER
  }
  return sum;
}

}  // namespace phoenix::runner
