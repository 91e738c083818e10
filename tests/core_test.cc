// Unit tests for the Phoenix core: CRV monitor, admission control and the
// Phoenix scheduler's behavioural contracts.
#include <gtest/gtest.h>

#include "cluster/builder.h"
#include "core/admission.h"
#include "core/crv.h"
#include "core/phoenix.h"
#include "runner/experiment.h"
#include "trace/generators.h"

namespace phoenix::core {
namespace {

using cluster::Attr;
using cluster::ConstraintOp;
using cluster::ConstraintSet;
using cluster::CrvDim;
using cluster::Machine;

/// A hand-built 4-machine cluster with known pools:
///   arch=0 on machines {0,1}, arch=1 on {2,3};
///   cores: 4,8,16,32 on machines 0..3.
cluster::Cluster TinyCluster() {
  std::vector<Machine> ms;
  for (std::uint32_t i = 0; i < 4; ++i) {
    Machine m;
    m.id = i;
    m.Set(Attr::kArch, i < 2 ? 0 : 1);
    m.Set(Attr::kNumCores, 4 << i);
    m.Set(Attr::kEthernetSpeed, 1);
    m.Set(Attr::kMaxDisks, 2);
    m.Set(Attr::kMinDisks, 2);
    m.Set(Attr::kKernelVersion, 3);
    m.Set(Attr::kPlatformFamily, 0);
    m.Set(Attr::kCpuClock, 24);
    m.Set(Attr::kMinMemory, 32);
    ms.push_back(m);
  }
  return cluster::Cluster(std::move(ms));
}

// ---------------------------------------------------------------- CrvMonitor

TEST(CrvMonitor, EmptyTableHasZeroRatios) {
  const cluster::Cluster cl = TinyCluster();
  CrvMonitor monitor(cl);
  const CrvSnapshot snap = monitor.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snap.max_ratio, 0.0);
  for (std::size_t d = 0; d < cluster::kNumCrvDims; ++d) {
    EXPECT_DOUBLE_EQ(snap.ratio[d], 0.0);
    EXPECT_EQ(snap.demand[d], 0u);
  }
}

TEST(CrvMonitor, EnqueueAddsInverseOfPoolSize) {
  const cluster::Cluster cl = TinyCluster();
  CrvMonitor monitor(cl);
  // arch=0 pool has 2 machines: each queued entry adds 1/2 to the cpu dim.
  ConstraintSet cs({{Attr::kArch, ConstraintOp::kEqual, 0, true}});
  monitor.OnEnqueue(cs);
  monitor.OnEnqueue(cs);
  const CrvSnapshot snap = monitor.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snap.RatioFor(CrvDim::kCpu), 1.0);
  EXPECT_EQ(snap.demand[static_cast<std::size_t>(CrvDim::kCpu)], 2u);
  EXPECT_EQ(snap.max_dim, CrvDim::kCpu);
  EXPECT_DOUBLE_EQ(snap.max_ratio, 1.0);
}

TEST(CrvMonitor, DequeueRestoresZero) {
  const cluster::Cluster cl = TinyCluster();
  CrvMonitor monitor(cl);
  ConstraintSet cs({{Attr::kArch, ConstraintOp::kEqual, 0, true},
                    {Attr::kKernelVersion, ConstraintOp::kEqual, 3, true}});
  monitor.OnEnqueue(cs);
  monitor.OnDequeue(cs);
  const CrvSnapshot snap = monitor.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snap.max_ratio, 0.0);
  EXPECT_EQ(monitor.DemandFor(CrvDim::kCpu), 0u);
  EXPECT_EQ(monitor.DemandFor(CrvDim::kOs), 0u);
}

TEST(CrvMonitor, DimensionsAreIndependent) {
  const cluster::Cluster cl = TinyCluster();
  CrvMonitor monitor(cl);
  // Kernel=3 matches all 4 machines: 1/4 per entry on the os dim.
  ConstraintSet os_cs({{Attr::kKernelVersion, ConstraintOp::kEqual, 3, true}});
  // cores>16 matches 1 machine: 1.0 per entry on the cpu dim.
  ConstraintSet cpu_cs({{Attr::kNumCores, ConstraintOp::kGreater, 16, true}});
  monitor.OnEnqueue(os_cs);
  monitor.OnEnqueue(cpu_cs);
  const CrvSnapshot snap = monitor.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snap.RatioFor(CrvDim::kOs), 0.25);
  EXPECT_DOUBLE_EQ(snap.RatioFor(CrvDim::kCpu), 1.0);
  EXPECT_EQ(snap.max_dim, CrvDim::kCpu);
}

TEST(CrvMonitor, UnconstrainedEntriesDoNotCount) {
  const cluster::Cluster cl = TinyCluster();
  CrvMonitor monitor(cl);
  monitor.OnEnqueue(ConstraintSet());
  EXPECT_DOUBLE_EQ(monitor.TakeSnapshot().max_ratio, 0.0);
}

TEST(CrvMonitor, CongestedAboveThreshold) {
  const cluster::Cluster cl = TinyCluster();
  CrvMonitor monitor(cl);
  ConstraintSet cs({{Attr::kNumCores, ConstraintOp::kGreater, 16, true}});
  monitor.OnEnqueue(cs);
  EXPECT_FALSE(monitor.TakeSnapshot().CongestedAbove(1.5));
  monitor.OnEnqueue(cs);
  EXPECT_TRUE(monitor.TakeSnapshot().CongestedAbove(1.5));
}

TEST(CrvMonitorDeathTest, DequeueUnderflowAborts) {
  const cluster::Cluster cl = TinyCluster();
  CrvMonitor monitor(cl);
  ConstraintSet cs({{Attr::kArch, ConstraintOp::kEqual, 0, true}});
  EXPECT_DEATH(monitor.OnDequeue(cs), "underflow");
}

TEST(CrvSnapshot, ToStringNamesEveryDim) {
  CrvSnapshot snap;
  const std::string s = snap.ToString();
  for (std::size_t d = 0; d < cluster::kNumCrvDims; ++d) {
    EXPECT_NE(
        s.find(std::string(cluster::CrvDimName(static_cast<CrvDim>(d)))),
        std::string::npos);
  }
}

// ---------------------------------------------------------------- Admission

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest()
      : cluster_(cluster::BuildCluster({.num_machines = 1000, .seed = 5})) {}

  sched::JobRuntime MakeJob(ConstraintSet cs, bool short_class = true) {
    spec_.id = 0;
    spec_.submit_time = 0;
    spec_.task_durations = {5.0};
    spec_.constraints = cs;
    sched::JobRuntime job;
    job.spec = &spec_;
    job.id = 0;
    job.effective = std::move(cs);
    job.constrained = true;
    job.short_class = short_class;
    return job;
  }

  /// A snapshot with one hot dimension.
  static CrvSnapshot HotSnapshot(CrvDim dim, double ratio = 5.0) {
    CrvSnapshot snap;
    snap.ratio[static_cast<std::size_t>(dim)] = ratio;
    snap.max_ratio = ratio;
    snap.max_dim = dim;
    return snap;
  }

  cluster::Cluster cluster_;
  trace::Job spec_;
};

TEST_F(AdmissionTest, RelaxesSoftConstraintOnHotDim) {
  AdmissionController ac(cluster_, 1.0);
  // A scarce soft request: 40 Gbps NIC (net dim), ~7 % of machines.
  auto job = MakeJob(ConstraintSet(
      {{Attr::kEthernetSpeed, ConstraintOp::kGreater, 10, false}}));
  const auto relaxed = ac.Negotiate(job, HotSnapshot(CrvDim::kNet));
  EXPECT_EQ(relaxed, 1u);
  EXPECT_TRUE(job.effective.empty());
  EXPECT_NEAR(job.duration_multiplier,
              sched::SchedulerConfig::soft_relax_penalty, 1e-12);
}

TEST_F(AdmissionTest, NeverRelaxesHardConstraints) {
  AdmissionController ac(cluster_, 1.0);
  auto job = MakeJob(ConstraintSet(
      {{Attr::kEthernetSpeed, ConstraintOp::kGreater, 10, true}}));
  EXPECT_EQ(ac.Negotiate(job, HotSnapshot(CrvDim::kNet)), 0u);
  EXPECT_EQ(job.effective.size(), 1u);
}

TEST_F(AdmissionTest, ColdDimensionsAreLeftAlone) {
  AdmissionController ac(cluster_, 1.0);
  auto job = MakeJob(ConstraintSet(
      {{Attr::kEthernetSpeed, ConstraintOp::kGreater, 10, false}}));
  CrvSnapshot cold;  // all ratios zero
  EXPECT_EQ(ac.Negotiate(job, cold), 0u);
  EXPECT_EQ(job.effective.size(), 1u);
}

TEST_F(AdmissionTest, LongJobsAreNotNegotiated) {
  AdmissionController ac(cluster_, 1.0);
  auto job = MakeJob(
      ConstraintSet({{Attr::kEthernetSpeed, ConstraintOp::kGreater, 10, false}}),
      /*short_class=*/false);
  EXPECT_EQ(ac.Negotiate(job, HotSnapshot(CrvDim::kNet)), 0u);
}

TEST_F(AdmissionTest, RoomyPoolIsNotNegotiated) {
  AdmissionController ac(cluster_, 1.0);
  // x86 (~72 % of machines): plenty of room, no reason to pay the penalty.
  auto job = MakeJob(
      ConstraintSet({{Attr::kArch, ConstraintOp::kEqual, 0, false}}));
  EXPECT_EQ(ac.Negotiate(job, HotSnapshot(CrvDim::kCpu)), 0u);
}

TEST_F(AdmissionTest, RespectsRelaxationCap) {
  static_assert(sched::SchedulerConfig::phoenix_max_relaxations == 1);
  AdmissionController ac(cluster_, 1.0);
  auto job = MakeJob(ConstraintSet(
      {{Attr::kEthernetSpeed, ConstraintOp::kGreater, 10, false},
       {Attr::kNumCores, ConstraintOp::kGreater, 16, false}}));
  CrvSnapshot snap;
  snap.ratio[static_cast<std::size_t>(CrvDim::kNet)] = 5.0;
  snap.ratio[static_cast<std::size_t>(CrvDim::kCpu)] = 5.0;
  snap.max_ratio = 5.0;
  snap.max_dim = CrvDim::kNet;
  EXPECT_EQ(ac.Negotiate(job, snap), 1u);
  EXPECT_EQ(job.effective.size(), 1u);
}

TEST_F(AdmissionTest, RequiresMaterialPoolWidening) {
  AdmissionController ac(cluster_, 1.0);
  // Two soft constraints on the same scarce pool shape: dropping just one of
  // a pair that is individually common widens little. Build a case where
  // the remaining constraint still pins the pool: cores > 16 (scarce) and
  // clock < 24 (scarce-ish); dropping clock must at least double the pool
  // to be accepted.
  auto job = MakeJob(ConstraintSet(
      {{Attr::kNumCores, ConstraintOp::kGreater, 16, true},   // hard, scarce
       {Attr::kKernelVersion, ConstraintOp::kGreater, 0, false}}));  // matches all
  CrvSnapshot snap = HotSnapshot(CrvDim::kOs);
  // Dropping the kernel constraint cannot widen the pool (cores pin it).
  EXPECT_EQ(ac.Negotiate(job, snap), 0u);
  EXPECT_EQ(job.effective.size(), 2u);
}

// ---------------------------------------------------------------- Phoenix

metrics::SimReport RunNamed(const std::string& name, const trace::Trace& t,
                            const cluster::Cluster& cl,
                            std::uint64_t seed = 21) {
  runner::RunOptions o;
  o.scheduler = name;
  o.config.seed = seed;
  return runner::RunSimulation(t, cl, o);
}

class PhoenixBehaviorTest : public ::testing::Test {
 protected:
  PhoenixBehaviorTest()
      : cluster_(cluster::BuildCluster({.num_machines = 150, .seed = 4})),
        trace_(trace::GenerateGoogleTrace(7000, 150, 0.85, 4)) {}
  cluster::Cluster cluster_;
  trace::Trace trace_;
};

TEST_F(PhoenixBehaviorTest, BeatsEagleTailOnCongestedConstrainedWorkload) {
  const auto phoenix = RunNamed("phoenix", trace_, cluster_);
  const auto eagle = RunNamed("eagle-c", trace_, cluster_);
  const double speedup = metrics::SpeedupAtPercentile(
      phoenix, eagle, 99, metrics::ClassFilter::kShort,
      metrics::ConstraintFilter::kAll);
  EXPECT_GT(speedup, 1.0);
}

TEST_F(PhoenixBehaviorTest, DoesNotHurtLongJobs) {
  const auto phoenix = RunNamed("phoenix", trace_, cluster_);
  const auto eagle = RunNamed("eagle-c", trace_, cluster_);
  const auto p = phoenix.ResponseSummary(metrics::ClassFilter::kLong,
                                         metrics::ConstraintFilter::kAll);
  const auto e = eagle.ResponseSummary(metrics::ClassFilter::kLong,
                                       metrics::ConstraintFilter::kAll);
  // Fig 8: long-job response times stay within a modest band of Eagle-C.
  EXPECT_LT(p.p99, e.p99 * 1.3);
}

TEST_F(PhoenixBehaviorTest, CrvReorderingHappensUnderLoad) {
  const auto report = RunNamed("phoenix", trace_, cluster_);
  EXPECT_GT(report.counters.tasks_reordered_crv, 0u);
  EXPECT_GT(report.counters.crv_reorder_rounds, 0u);
}

TEST_F(PhoenixBehaviorTest, ProactiveAdmissionFiresUnderLoad) {
  const auto report = RunNamed("phoenix", trace_, cluster_);
  EXPECT_GT(report.counters.soft_constraints_relaxed, 0u);
}

TEST_F(PhoenixBehaviorTest, FeatureTogglesDisableTheirCounters) {
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.config.seed = 21;
  const auto full = runner::RunSimulation(trace_, cluster_, o);
  o.config.phoenix_crv_reorder = false;
  o.config.phoenix_admission = false;
  const auto report = runner::RunSimulation(trace_, cluster_, o);
  EXPECT_EQ(report.counters.tasks_reordered_crv, 0u);
  // Only *forced* relaxations (jointly unsatisfiable constraint sets)
  // remain; proactive negotiation is off, so the count must drop well below
  // the full-feature run.
  EXPECT_LT(report.counters.soft_constraints_relaxed,
            full.counters.soft_constraints_relaxed);
}

TEST_F(PhoenixBehaviorTest, SlackBoundsBypassCount) {
  // With slack_threshold = 1, reordering is essentially disabled after one
  // bypass; the run must still complete and starve nobody (completion is
  // the proof — a starved probe would stall its job forever).
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.config.seed = 21;
  o.config.slack_threshold = 1;
  const auto report = runner::RunSimulation(trace_, cluster_, o);
  EXPECT_EQ(report.jobs.size(), trace_.size());
}

TEST_F(PhoenixBehaviorTest, CrvHistoryIsRecorded) {
  sim::Engine engine;
  sched::SchedulerConfig config;
  config.seed = 21;
  PhoenixScheduler p(engine, cluster_, config);
  p.SubmitTrace(trace_);
  engine.Run();
  const auto& history = p.crv_history();
  ASSERT_FALSE(history.empty());
  double prev = -1;
  bool ever_congested = false;
  for (const auto& sample : history) {
    EXPECT_GT(sample.time, prev);  // strictly ordered heartbeats
    prev = sample.time;
    EXPECT_GE(sample.snapshot.max_ratio, 0.0);
    ever_congested = ever_congested || sample.congested;
  }
  // This workload drives the cluster into congestion at least once.
  EXPECT_TRUE(ever_congested);
}

TEST(PhoenixUnit, SnapshotAccessorsExposed) {
  sim::Engine engine;
  const cluster::Cluster cl = TinyCluster();
  sched::SchedulerConfig config;
  PhoenixScheduler p(engine, cl, config);
  EXPECT_FALSE(p.congested());
  EXPECT_DOUBLE_EQ(p.snapshot().max_ratio, 0.0);
  EXPECT_EQ(p.name(), "phoenix");
}

}  // namespace
}  // namespace phoenix::core
