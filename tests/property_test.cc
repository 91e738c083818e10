// Property-based suites: invariants that must hold for every scheduler on
// every workload shape, swept over load levels, burstiness and seeds.
#include <gtest/gtest.h>

#include "cluster/builder.h"
#include "runner/experiment.h"
#include "runner/registry.h"
#include "trace/generators.h"

namespace phoenix {
namespace {

struct PropertyCase {
  std::string scheduler;
  double load;
  double burst_factor;
  std::uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  std::string n = info.param.scheduler + "_l" +
                  std::to_string(static_cast<int>(info.param.load * 100)) +
                  "_b" + std::to_string(static_cast<int>(info.param.burst_factor)) +
                  "_s" + std::to_string(info.param.seed);
  for (auto& ch : n)
    if (ch == '-' || ch == '.') ch = '_';
  return n;
}

class SchedulerInvariantTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  void Run() {
    const auto& p = GetParam();
    auto gen = trace::GoogleProfile();
    gen.num_jobs = 800;
    gen.num_workers = 60;
    gen.target_load = p.load;
    gen.burst_factor = p.burst_factor;
    gen.seed = p.seed;
    trace_ = trace::GenerateTrace("prop", gen);
    cluster_ = std::make_unique<cluster::Cluster>(
        cluster::BuildCluster({.num_machines = 60, .seed = p.seed}));
    runner::RunOptions o;
    o.scheduler = p.scheduler;
    o.config.seed = p.seed;
    report_ = runner::RunSimulation(trace_, *cluster_, o);
  }

  trace::Trace trace_;
  std::unique_ptr<cluster::Cluster> cluster_;
  metrics::SimReport report_;
};

TEST_P(SchedulerInvariantTest, CoreInvariantsHold) {
  Run();
  // 1. Conservation: every job completed, with its full task count.
  ASSERT_EQ(report_.jobs.size(), trace_.size());
  for (const auto& job : report_.jobs) {
    EXPECT_EQ(job.num_tasks, trace_.job(job.id).num_tasks());
  }
  // 2. Physics: a job can never respond faster than its longest task, and
  //    queuing delay never exceeds response time.
  for (const auto& job : report_.jobs) {
    const auto& durations = trace_.job(job.id).task_durations;
    const double longest = *std::max_element(durations.begin(), durations.end());
    EXPECT_GE(job.response(), longest - 1e-9) << job.id;
    EXPECT_LE(job.queuing_delay, job.response() + 1e-9) << job.id;
  }
  // 3. Work conservation: busy time >= raw work (relaxation only adds) and
  //    utilization <= 1 with single-slot workers.
  double work = 0;
  for (const auto& j : trace_.jobs()) work += j.total_work();
  EXPECT_GE(report_.total_busy_time, work - 1e-6);
  EXPECT_LE(report_.Utilization(), 1.0 + 1e-9);
  // 4. Probe accounting: resolved-as-noop probes never exceed those sent.
  EXPECT_LE(report_.counters.probes_cancelled, report_.counters.probes_sent);
  // 5. Structural report checks.
  report_.CheckInvariants();
}

TEST_P(SchedulerInvariantTest, ProbeCountMatchesPlane) {
  Run();
  // Distributed-plane jobs get exactly probe_ratio probes per task (plus
  // failure re-sends, which are off here); centralized-plane jobs get none.
  std::size_t short_tasks = 0, all_tasks = 0;
  for (const auto& job : report_.jobs) {
    all_tasks += job.num_tasks;
    if (job.short_class) short_tasks += job.num_tasks;
  }
  const auto& p = GetParam();
  if (p.scheduler == "sparrow-c") {
    EXPECT_EQ(report_.counters.probes_sent, 2 * all_tasks);
  } else if (p.scheduler == "yacc-d" || p.scheduler == "central-c") {
    EXPECT_EQ(report_.counters.probes_sent, 0u);
  } else {
    EXPECT_EQ(report_.counters.probes_sent, 2 * short_tasks);
  }
}

std::vector<PropertyCase> MakeCases() {
  std::vector<PropertyCase> cases;
  for (const auto& sched : runner::SchedulerNames()) {
    cases.push_back({sched, 0.5, 5.0, 101});
    cases.push_back({sched, 0.9, 12.0, 202});
  }
  // Extra seeds for the flagship pair.
  for (const std::uint64_t seed : {303, 404, 505}) {
    cases.push_back({"phoenix", 0.85, 10.0, seed});
    cases.push_back({"eagle-c", 0.85, 10.0, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SchedulerInvariantTest,
                         ::testing::ValuesIn(MakeCases()), CaseName);

// ---- generator properties over a parameter grid -------------------------

struct GenCase {
  double load;
  double burst_factor;
  double short_fraction;
  std::uint64_t seed;
};

void PrintTo(const GenCase& p, std::ostream* os) {
  *os << "l" << p.load << " b" << p.burst_factor << " short"
      << p.short_fraction << " s" << p.seed;
}

class GeneratorPropertyTest : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorPropertyTest, StructureHoldsAcrossGrid) {
  const auto& p = GetParam();
  auto gen = trace::GoogleProfile();
  gen.num_jobs = 2500;
  gen.num_workers = 150;
  gen.target_load = p.load;
  gen.burst_factor = p.burst_factor;
  gen.short_job_fraction = p.short_fraction;
  gen.seed = p.seed;
  const auto t = trace::GenerateTrace("grid", gen);
  t.CheckInvariants();
  const auto stats = t.ComputeStats();
  EXPECT_EQ(stats.num_jobs, 2500u);
  EXPECT_NEAR(stats.short_job_fraction, p.short_fraction, 0.04);
  EXPECT_NEAR(t.OfferedLoad(150), p.load, p.load * 0.45);
  // The short cutoff must actually separate the classes it was built from.
  std::size_t agree = 0;
  for (const auto& j : t.jobs()) {
    agree += (j.mean_task_duration() <= t.short_cutoff()) == j.short_job;
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(t.size()), 0.95);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GeneratorPropertyTest,
    ::testing::Values(GenCase{0.5, 1.0, 0.85, 1}, GenCase{0.7, 8.0, 0.90, 2},
                      GenCase{0.9, 15.0, 0.95, 3}, GenCase{0.85, 10.0, 0.80, 4},
                      GenCase{0.3, 5.0, 0.92, 5}, GenCase{1.0, 20.0, 0.90, 6}),
    [](const auto& info) {
      return "case" + std::to_string(info.index);
    });

}  // namespace
}  // namespace phoenix
