// Bit-identity gate for the simulator fast path (ctest -L perf).
//
// The calendar event queue, allocation-free callbacks, SoA heartbeat state,
// and the RPC slot pool are all pure-performance rewrites: they must not
// perturb the event stream by a single draw. These tests fingerprint entire
// fixed-seed runs (metrics::Fingerprint: fired events, the full counter
// block, every job outcome) and demand equality across repeats and across
// the experiment thread budget, including the adversarial
// chaos + elastic + tenancy configuration where any hidden ordering or
// RNG-sequence change would surface.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/builder.h"
#include "metrics/report.h"
#include "runner/experiment.h"
#include "runner/parallel.h"
#include "tenancy/config.h"
#include "trace/generators.h"

namespace phoenix {
namespace {

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { runner::SetExperimentThreads(n); }
  ~ScopedThreads() { runner::SetExperimentThreads(0); }
};

// Google-profile trace with jobs spread across three tenants.
trace::Trace TenantedTrace(std::size_t jobs, std::size_t workers, double load,
                           std::uint64_t seed) {
  auto gen = trace::ProfileByName("google");
  gen.num_jobs = jobs;
  gen.num_workers = workers;
  gen.target_load = load;
  gen.seed = seed;
  gen.tenant_weights = {1.0, 1.0, 1.0};
  return trace::GenerateTrace("google-tenanted", gen);
}

// The adversarial configuration: lognormal control-plane latency with
// drop/duplicate/reorder chaos, an elastic fleet with transient leases, and
// three tenants exercising admission + preemption. Every fast-path rewrite
// in this PR sits on this run's hot path.
runner::RunOptions ChaosElasticTenancyOptions() {
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.config.seed = 31;
  o.config.net.model = net::LatencyModel::kLognormal;
  o.config.net.sigma = 0.4;
  o.config.net.drop_rate = 0.02;
  o.config.net.duplicate_rate = 0.01;
  o.config.net.reorder_rate = 0.02;
  o.config.tenancy.tenants.push_back(
      {"prod", tenancy::PriorityClass::kProd, 0.5, 0.0, 60.0});
  o.config.tenancy.tenants.push_back(
      {"batch", tenancy::PriorityClass::kBatch, 0.35, 0.6, 0.0});
  o.config.tenancy.tenants.push_back(
      {"scav", tenancy::PriorityClass::kBestEffort, 0.0, 0.0, 0.0});
  o.elastic.enabled = true;
  o.elastic.base_machines = 32;
  o.elastic.reserve_machines = 16;
  o.elastic.transient_machines = 12;
  o.elastic.transient_target = 12;
  o.elastic.warmup_delay = 20.0;
  o.elastic.drain_grace = 30.0;
  o.elastic.reclaim_rate = 1.0 / 200.0;
  o.elastic.reclaim_grace = 10.0;
  return o;
}

TEST(PerfIdentity, FixedSeedRunIsBitIdenticalAcrossRepeats) {
  const auto cl = cluster::BuildCluster({.num_machines = 60, .seed = 33});
  const auto t = TenantedTrace(400, 32, 0.8, 33);
  const auto o = ChaosElasticTenancyOptions();
  const auto a = runner::RunSimulation(t, cl, o);
  const auto b = runner::RunSimulation(t, cl, o);
  ASSERT_GT(a.events_fired, 0u);
  EXPECT_EQ(metrics::Fingerprint(a), metrics::Fingerprint(b));
}

TEST(PerfIdentity, ChaosElasticTenancyIdenticalAcrossThreadBudgets) {
  const auto cl = cluster::BuildCluster({.num_machines = 60, .seed = 33});
  const auto t = TenantedTrace(400, 32, 0.8, 33);
  const auto o = ChaosElasticTenancyOptions();
  std::vector<std::string> serial;
  {
    ScopedThreads threads(1);
    runner::RepeatedRuns runs(t, cl, o, 4);
    for (const auto& r : runs.reports()) {
      serial.push_back(metrics::Fingerprint(r));
    }
  }
  {
    ScopedThreads threads(4);
    runner::RepeatedRuns runs(t, cl, o, 4);
    ASSERT_EQ(runs.reports().size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(metrics::Fingerprint(runs.reports()[i]), serial[i])
          << "run " << i;
    }
  }
}

// Plain static-fleet runs for every scheduler must also be repeat-identical:
// the figure benches are built from exactly these runs, and the committed
// paper outputs assume them byte-stable.
TEST(PerfIdentity, AllSchedulersRepeatIdenticalOnStaticFleet) {
  const auto cl = cluster::BuildCluster({.num_machines = 50, .seed = 7});
  const auto t = trace::GenerateGoogleTrace(300, 32, 0.8, 11);
  for (const char* name : {"phoenix", "eagle-c", "hawk-c"}) {
    runner::RunOptions o;
    o.scheduler = name;
    o.config.seed = 31;
    const auto a = runner::RunSimulation(t, cl, o);
    const auto b = runner::RunSimulation(t, cl, o);
    EXPECT_EQ(metrics::Fingerprint(a), metrics::Fingerprint(b)) << name;
  }
}

}  // namespace
}  // namespace phoenix
