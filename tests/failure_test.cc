// Tests for machine failure injection: tasks killed by failures are
// replayed, queues are re-dispatched, and every job still completes —
// the fault-tolerance behaviour the paper's spread constraints motivate.
#include <gtest/gtest.h>

#include "cluster/builder.h"
#include "core/phoenix.h"
#include "obs/audit.h"
#include "runner/experiment.h"
#include "sched/central.h"
#include "sched/eagle.h"
#include "sim/engine.h"
#include "trace/generators.h"

namespace phoenix {
namespace {

metrics::SimReport RunWithFailures(const std::string& scheduler,
                                   const trace::Trace& t,
                                   const cluster::Cluster& cl, double mtbf,
                                   double mttr, std::uint64_t seed = 13) {
  runner::RunOptions o;
  o.scheduler = scheduler;
  o.config.seed = seed;
  o.config.machine_mtbf = mtbf;
  o.config.machine_mttr = mttr;
  return runner::RunSimulation(t, cl, o);
}

TEST(Failures, DisabledByDefault) {
  const auto cl = cluster::BuildCluster({.num_machines = 40, .seed = 13});
  const auto t = trace::GenerateGoogleTrace(500, 40, 0.7, 13);
  runner::RunOptions o;
  o.scheduler = "phoenix";
  const auto report = runner::RunSimulation(t, cl, o);
  EXPECT_EQ(report.counters.machine_failures, 0u);
  EXPECT_EQ(report.counters.tasks_rescheduled_failure, 0u);
}

class FailureSchedulerTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FailureSchedulerTest, EveryJobCompletesUnderChurn) {
  const auto cl = cluster::BuildCluster({.num_machines = 60, .seed = 17});
  const auto t = trace::GenerateGoogleTrace(1500, 60, 0.8, 17);
  const auto report = RunWithFailures(GetParam(), t, cl, /*mtbf=*/3000,
                                      /*mttr=*/200);
  EXPECT_EQ(report.jobs.size(), t.size());
  EXPECT_GT(report.counters.machine_failures, 0u);
  report.CheckInvariants();
}

TEST_P(FailureSchedulerTest, ChurnOnlySlowsThingsDown) {
  const auto cl = cluster::BuildCluster({.num_machines = 60, .seed = 19});
  const auto t = trace::GenerateGoogleTrace(1000, 60, 0.7, 19);
  runner::RunOptions clean_opts;
  clean_opts.scheduler = GetParam();
  clean_opts.config.seed = 19;
  const auto clean = runner::RunSimulation(t, cl, clean_opts);
  const auto churned = RunWithFailures(GetParam(), t, cl, 2000, 300, 19);
  // Replayed work means at least as much total service time.
  EXPECT_GE(churned.total_busy_time, clean.total_busy_time - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, FailureSchedulerTest,
                         ::testing::Values("phoenix", "eagle-c", "hawk-c",
                                           "sparrow-c", "yacc-d", "central-c"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(Failures, TaskKilledMidRunIsReplayed) {
  // One machine, one long task; MTBF far below the task duration guarantees
  // at least one mid-run kill, yet the job must finish.
  const auto cl = cluster::BuildCluster({.num_machines = 1, .seed = 23});
  trace::Job job;
  job.id = 0;
  job.submit_time = 0;
  job.task_durations = {50.0};
  trace::Trace t("failover", {job});
  t.set_short_cutoff(100.0);
  const auto report = RunWithFailures("sparrow-c", t, cl, /*mtbf=*/20,
                                      /*mttr=*/5);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_GT(report.counters.machine_failures, 0u);
  EXPECT_GT(report.counters.tasks_rescheduled_failure, 0u);
  // The job took at least one aborted attempt plus the full run.
  EXPECT_GT(report.jobs[0].response(), 50.0);
}

TEST(Failures, BusyTimeStaysConsistent) {
  // Utilization accounting must not leak when unfinished service is
  // refunded on failure: busy time stays within [work, work * many-retries]
  // and utilization stays <= 1 (checked by CheckInvariants inside).
  const auto cl = cluster::BuildCluster({.num_machines = 30, .seed = 29});
  const auto t = trace::GenerateYahooTrace(600, 30, 0.7, 29);
  const auto report = RunWithFailures("eagle-c", t, cl, 1500, 200, 29);
  double work = 0;
  for (const auto& j : t.jobs()) work += j.total_work();
  EXPECT_GE(report.total_busy_time, work * 0.9);
  EXPECT_LE(report.Utilization(), 1.0 + 1e-9);
}

TEST(Failures, RescheduleCounterTracksChurnIntensity) {
  const auto cl = cluster::BuildCluster({.num_machines = 40, .seed = 31});
  const auto t = trace::GenerateGoogleTrace(800, 40, 0.75, 31);
  const auto light = RunWithFailures("phoenix", t, cl, 20000, 100, 31);
  const auto heavy = RunWithFailures("phoenix", t, cl, 1000, 100, 31);
  EXPECT_GT(heavy.counters.machine_failures,
            light.counters.machine_failures);
  EXPECT_GT(heavy.counters.tasks_rescheduled_failure,
            light.counters.tasks_rescheduled_failure);
}

TEST(Failures, SpreadJobsSurviveRackFailure) {
  // Spread placement plus failures: jobs complete and the spread preference
  // still yields multi-rack placements.
  const auto cl = cluster::BuildCluster(
      {.num_machines = 60, .seed = 37, .machines_per_rack = 10});
  auto o = trace::GoogleProfile();
  o.num_jobs = 800;
  o.num_workers = 60;
  o.seed = 37;
  o.spread_fraction = 0.5;
  const auto t = trace::GenerateTrace("g", o);
  const auto report = RunWithFailures("phoenix", t, cl, 3000, 250, 37);
  EXPECT_EQ(report.jobs.size(), t.size());
  // Aggregate check: most multi-task spread jobs still span racks despite
  // churn (single-rack constraint pools are the legitimate exceptions).
  std::size_t spread_multi = 0, spread_ok = 0;
  for (const auto& j : report.jobs) {
    if (j.placement == trace::PlacementPref::kSpread && j.num_tasks > 1) {
      ++spread_multi;
      spread_ok += j.racks_used >= 2;
    }
  }
  ASSERT_GT(spread_multi, 0u);
  EXPECT_GT(static_cast<double>(spread_ok) / spread_multi, 0.75);
}

// ---------------------------------------------------------------- white-box
// Deterministic failure-path regressions, driven through a subclass that
// exposes the protected framework internals.

template <typename Scheduler>
class WhiteBox : public Scheduler {
 public:
  using Scheduler::Scheduler;
  using Scheduler::AllJobsDone;
  using Scheduler::PublishWait;
  using Scheduler::RemoveQueueAt;
  using Scheduler::counters_view;
  using Scheduler::fabric;
  using Scheduler::runtime;
  using Scheduler::worker;
};

trace::Trace TwoTaskShortJob(const char* name) {
  trace::Job job;
  job.id = 0;
  job.submit_time = 0;
  job.task_durations = {5.0, 5.0};
  trace::Trace t(name, {job});
  t.set_short_cutoff(100.0);
  return t;
}

// Steps the single-worker scenario until worker 0 holds its slot for a
// sticky-batch fetch (busy, no running task, no probe resolving).
template <typename Scheduler>
bool StepUntilStickyFetch(sim::Engine& engine, WhiteBox<Scheduler>& sched) {
  for (int i = 0; i < 10000; ++i) {
    if (sched.worker(0).fetching_job != trace::kInvalidJob) return true;
    if (!engine.Step()) return false;  // drained before any sticky fetch
  }
  return false;
}

TEST(Failures, MachineFailingMidStickyFetchRedispatchesTheJob) {
  // Eagle finishes a task of a partially-placed job and holds the slot one
  // RTT to fetch the next task directly (sticky batch probing). A failure
  // inside that window cancels the fetch; the fix re-covers the fetched job
  // directly instead of relying on whatever sibling probes happen to
  // survive. The dedicated counter proves the direct path fired.
  const auto cl = cluster::BuildCluster({.num_machines = 1, .seed = 41});
  sim::Engine engine;
  sched::SchedulerConfig cfg;
  cfg.probe_ratio = 1;
  WhiteBox<sched::EagleScheduler> sched(engine, cl, cfg);
  const auto t = TwoTaskShortJob("sticky-failover");
  sched.SubmitTrace(t);

  ASSERT_TRUE(StepUntilStickyFetch(engine, sched));
  sched.InjectFailure(0);
  EXPECT_EQ(sched.counters_view().sticky_fetch_redispatches, 1u);
  sched.InjectRepair(0);
  engine.Run();
  EXPECT_TRUE(sched.AllJobsDone());
  sched.BuildReport().CheckInvariants();
}

TEST(Failures, StickyFetchSurvivesFailureWithoutLeftoverProbes) {
  // Adversarial variant: strip the leftover probe from the queue before the
  // failure, so nothing but the fetch itself covers the job's last task.
  // With the fetching_job redispatch reverted, the fetch event dies with
  // the machine, no probe remains, and the job strands forever (AllJobsDone
  // stays false when the bounded run below times out).
  const auto cl = cluster::BuildCluster({.num_machines = 1, .seed = 41});
  sim::Engine engine;
  sched::SchedulerConfig cfg;
  cfg.probe_ratio = 1;
  WhiteBox<sched::EagleScheduler> sched(engine, cl, cfg);
  const auto t = TwoTaskShortJob("sticky-strand");
  sched.SubmitTrace(t);

  ASSERT_TRUE(StepUntilStickyFetch(engine, sched));
  auto& w = sched.worker(0);
  while (!w.queue.empty()) {
    const sched::QueueEntry e = sched.RemoveQueueAt(w, w.queue.size() - 1);
    ASSERT_EQ(e.kind, sched::QueueEntry::Kind::kProbe);
    ASSERT_GT(sched.runtime(e.job).outstanding_probes, 0u);
    --sched.runtime(e.job).outstanding_probes;
  }
  sched.InjectFailure(0);
  sched.InjectRepair(0);
  engine.Run(/*until=*/20000.0);
  EXPECT_TRUE(sched.AllJobsDone());
}

TEST(Failures, StickyFetchTimingOutRedispatchesTheJob) {
  // The sticky fetch's RPC exhausts its retries instead of dying with the
  // machine: a partition cuts worker 0 off from the controller while the
  // fetch is in flight, so every attempt times out. The abort must free the
  // control slot and re-cover the fetched job exactly once; the re-covering
  // probe keeps bouncing until the partition heals, then the job finishes.
  const auto cl = cluster::BuildCluster({.num_machines = 1, .seed = 41});
  sim::Engine engine;
  sched::SchedulerConfig cfg;
  cfg.probe_ratio = 1;
  cfg.net.drop_rate = 1e-12;  // non-ideal so the reliable RPC path runs
  WhiteBox<sched::EagleScheduler> sched(engine, cl, cfg);
  const auto t = TwoTaskShortJob("sticky-timeout");
  sched.SubmitTrace(t);

  ASSERT_TRUE(StepUntilStickyFetch(engine, sched));
  sched.fabric().Partition({0}, /*duration=*/2.0);
  engine.Run();
  EXPECT_TRUE(sched.AllJobsDone());
  const metrics::SimReport report = sched.BuildReport();
  EXPECT_EQ(report.counters.sticky_fetch_redispatches, 1u);
  EXPECT_GE(report.counters.rpc_failures, 1u);
  report.CheckInvariants();
}

TEST(Failures, ProbeBouncesRepeatedlyWhileDestinationStaysDown) {
  // The only satisfying machine fails before the probe lands and stays down
  // across several bounce cycles: each delivery finds the machine dead,
  // bounces the probe back, and redispatch re-sends it after the fabric's
  // bounce backoff (1 s). The probe must keep cycling — not strand after
  // the first bounce — and the job completes once the machine repairs.
  const auto cl = cluster::BuildCluster({.num_machines = 1, .seed = 59});
  sim::Engine engine;
  sched::SchedulerConfig cfg;
  cfg.probe_ratio = 1;
  WhiteBox<sched::EagleScheduler> sched(engine, cl, cfg);
  trace::Job job;
  job.id = 0;
  job.submit_time = 0;
  job.task_durations = {5.0};
  trace::Trace t("multi-bounce", {job});
  t.set_short_cutoff(100.0);
  sched.SubmitTrace(t);

  sched.InjectFailure(0);  // down before the first probe delivery
  engine.Run(/*until=*/3.9);  // ~3 bounce-backoff cycles
  EXPECT_GE(sched.counters_view().probes_bounced, 3u);
  EXPECT_FALSE(sched.AllJobsDone());

  sched.InjectRepair(0);
  engine.Run();
  EXPECT_TRUE(sched.AllJobsDone());
  sched.BuildReport().CheckInvariants();
}

TEST(Failures, HeartbeatAuditCatchesAStrandedRun) {
  // A run whose completion event is gone would hold its machine forever.
  // The heartbeat's worker audit asks the engine about every run's
  // completion, so cancelling one behind the scheduler's back must surface
  // at the next heartbeat.
  const auto cl = cluster::BuildCluster({.num_machines = 1, .seed = 61});
  sim::Engine engine;
  sched::SchedulerConfig cfg;
  cfg.probe_ratio = 1;
  WhiteBox<sched::EagleScheduler> sched(engine, cl, cfg);
  obs::InvariantAuditor auditor;
  sched.AttachAuditor(&auditor);
  trace::Job job;
  job.id = 0;
  job.submit_time = 0;
  job.task_durations = {50.0};
  trace::Trace t("stranded-run", {job});
  t.set_short_cutoff(100.0);
  sched.SubmitTrace(t);

  for (int i = 0; i < 10000 && sched.worker(0).runs.empty(); ++i) {
    ASSERT_TRUE(engine.Step());
  }
  ASSERT_FALSE(sched.worker(0).runs.empty());
  ASSERT_TRUE(engine.Cancel(sched.worker(0).runs[0].pending_event));
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  // The task would still be running; the stranded run never ends, so run
  // only a bounded stretch that spans the next heartbeat.
  engine.Run(engine.Now() + cfg.heartbeat_interval + 1.0);
  EXPECT_GE(sched.counters_view().heartbeats, 1u);
  ASSERT_FALSE(auditor.ok());
  EXPECT_NE(auditor.Summary().find("stranded run"), std::string::npos)
      << auditor.Summary();
}

TEST(Failures, CentralizedPlacementFallsBackOffDeadCandidates) {
  // Every power-of-d candidate is down when the job arrives: the placement
  // must fall back to a fresh satisfying draw (counted) rather than binding
  // the first dead candidate unconditionally.
  const auto cl = cluster::BuildCluster({.num_machines = 8, .seed = 43});
  sim::Engine engine;
  WhiteBox<sched::CentralScheduler> sched(engine, cl,
                                          sched::SchedulerConfig{});
  trace::Job job;
  job.id = 0;
  job.submit_time = 1.0;
  job.task_durations = {50.0, 50.0, 50.0, 50.0};
  trace::Trace t("dead-pool", {job});
  t.set_short_cutoff(10.0);
  sched.SubmitTrace(t);

  for (cluster::MachineId m = 0; m < 8; ++m) sched.InjectFailure(m);
  engine.Run(/*until=*/3.0);  // the arrival fires with the whole fleet down
  EXPECT_GE(sched.counters_view().placement_dead_fallbacks, 4u);

  for (cluster::MachineId m = 0; m < 8; ++m) sched.InjectRepair(m);
  engine.Run();
  EXPECT_TRUE(sched.AllJobsDone());
  sched.BuildReport().CheckInvariants();
}

TEST(Failures, RepairResetsStaleCrvState) {
  // A repaired machine must not come back with the wait estimate / CRV mark
  // it had when it died: Phoenix would keep steering probes by a snapshot of
  // a queue that no longer exists (the queue is drained on failure).
  const auto cl = cluster::BuildCluster({.num_machines = 2, .seed = 47});
  sim::Engine engine;
  WhiteBox<core::PhoenixScheduler> sched(engine, cl,
                                         sched::SchedulerConfig{});
  auto& w = sched.worker(0);
  sched.PublishWait(0, 42.0, true);
  sched.InjectFailure(0);
  EXPECT_TRUE(w.failed);
  sched.InjectRepair(0);
  EXPECT_FALSE(w.failed);
  EXPECT_EQ(sched.published_wait(0), 0.0);
  EXPECT_FALSE(sched.crv_marked(0));
}

TEST(Failures, InjectionIsIdempotent) {
  // Double-failure and double-repair are no-ops, and repairing an up
  // machine never schedules stochastic churn (mtbf is 0 here).
  const auto cl = cluster::BuildCluster({.num_machines = 2, .seed = 53});
  sim::Engine engine;
  WhiteBox<sched::EagleScheduler> sched(engine, cl, sched::SchedulerConfig{});
  sched.InjectRepair(0);  // up: no-op
  EXPECT_FALSE(sched.worker(0).failed);
  sched.InjectFailure(0);
  sched.InjectFailure(0);
  EXPECT_EQ(sched.counters_view().machine_failures, 1u);
  sched.InjectRepair(0);
  EXPECT_FALSE(sched.worker(0).failed);
  EXPECT_TRUE(engine.Empty());  // no auto-repair / refail events linger
}

}  // namespace
}  // namespace phoenix
