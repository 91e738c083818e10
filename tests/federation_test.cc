// Sharded control plane tests (ctest -L federation): the ShardMap fleet
// partition, the FederationPlane's gossip ordering / staleness / global-view
// semantics, the auditor's federated bind and gossip-monotonicity rules,
// and end-to-end audited multi-shard runs — including fabric partitions on
// the gossip endpoints and bit-identical fingerprints across the experiment
// thread budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/builder.h"
#include "core/phoenix.h"
#include "federation/plane.h"
#include "federation/shard_map.h"
#include "metrics/report.h"
#include "net/fabric.h"
#include "obs/audit.h"
#include "runner/experiment.h"
#include "runner/parallel.h"
#include "sim/engine.h"
#include "trace/generators.h"

namespace phoenix {
namespace {

using federation::FederationConfig;
using federation::FederationPlane;
using federation::kNoShard;
using federation::ShardMap;

cluster::Cluster MakeFleet(std::size_t n, std::uint64_t seed = 7) {
  return cluster::BuildCluster({.num_machines = n, .seed = seed});
}

trace::Trace MakeTrace(std::size_t jobs, std::size_t workers,
                       std::uint64_t seed = 7) {
  auto gen = trace::ProfileByName("google");
  gen.num_jobs = jobs;
  gen.num_workers = workers;
  gen.target_load = 0.6;
  gen.seed = seed;
  return trace::GenerateTrace("google", gen);
}

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { runner::SetExperimentThreads(n); }
  ~ScopedThreads() { runner::SetExperimentThreads(0); }
};

// ---- ShardMap -------------------------------------------------------------

TEST(ShardMap, RangesPartitionTheFleet) {
  const ShardMap map(10, 3);
  EXPECT_EQ(map.num_shards(), 3u);
  cluster::MachineId next = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    const auto [lo, hi] = map.range(s);
    EXPECT_EQ(lo, next);  // contiguous, no gaps, no overlap
    EXPECT_LT(lo, hi);
    EXPECT_EQ(map.endpoint(s), lo);
    next = hi;
  }
  EXPECT_EQ(next, 10u);  // covers the whole fleet
  for (cluster::MachineId m = 0; m < 10; ++m) {
    const std::uint32_t s = map.shard_of(m);
    const auto [lo, hi] = map.range(s);
    EXPECT_GE(m, lo);
    EXPECT_LT(m, hi);
  }
  EXPECT_EQ(map.max_span(), 4u);  // ceil(10/3): the per-tick scan bound
}

TEST(ShardMap, SingleShardOwnsEverything) {
  const ShardMap map(7, 1);
  EXPECT_EQ(map.range(0).first, 0u);
  EXPECT_EQ(map.range(0).second, 7u);
  EXPECT_EQ(map.max_span(), 7u);
  for (cluster::MachineId m = 0; m < 7; ++m) {
    EXPECT_EQ(map.shard_of(m), 0u);
  }
}

// ---- FederationPlane ------------------------------------------------------

FederationConfig TwoShards(double period = 1.0, double stale = 5.0) {
  FederationConfig cfg;
  cfg.shards = 2;
  cfg.gossip_period = period;
  cfg.staleness_bound = stale;
  return cfg;
}

TEST(FederationPlane, DuplicatedGossipIsDroppedByVersionOrdering) {
  net::FabricConfig net;
  net.duplicate_rate = 0.9;  // most digests arrive (at least) twice
  sim::Engine engine;
  net::NetworkFabric fabric(engine, net, 17);
  FederationPlane plane(engine, fabric, TwoShards(), 4);
  plane.RefreshLocal(0, 1.0, 2, 1);
  plane.RefreshLocal(1, 2.0, 2, 1);
  plane.Start([&engine] { return engine.Now() < 4.5; });
  engine.Run();
  const auto& s = plane.stats();
  EXPECT_GT(s.digests_published, 0u);
  EXPECT_GT(s.digests_applied, 0u);
  // The duplicate copy carries the same version: strictly-newer-only apply
  // must drop it instead of rolling state forward twice.
  EXPECT_GT(s.digests_stale_dropped, 0u);
  EXPECT_EQ(s.digests_applied + s.digests_stale_dropped,
            fabric.stats().delivered);
}

TEST(FederationPlane, StalePeersDropOutOfGlobalViews) {
  sim::Engine engine;
  net::NetworkFabric fabric(engine, net::FabricConfig{}, 19);
  FederationPlane plane(engine, fabric, TwoShards(1.0, 2.0), 4);
  plane.RefreshLocal(0, 1.0, 2, 0);  // stamp t=0
  plane.RefreshLocal(1, 4.0, 6, 3);
  plane.OnQueuedDelta(1, 0, 0.25, +1);
  plane.OnQueuedDelta(1, 0, 0.25, +1);
  // One gossip round (shard 0 publishes at t=1.0, shard 1 at t=1.5), then
  // the chains stop so the origin stamps age past the 2 s bound.
  plane.Start([&engine] { return engine.Now() < 1.8; });
  engine.ScheduleAfter(1.9, [&] {
    ASSERT_TRUE(plane.Fresh(0, 1));  // origin stamp 0, age 1.9 <= 2
    // Live-worker weighting: (1.0*2 + 4.0*6) / 8.
    EXPECT_DOUBLE_EQ(plane.GlobalMeanWait(0), 3.25);
    std::array<std::uint64_t, cluster::kNumCrvDims> demand{};
    const auto load = plane.GlobalCrvLoad(0, &demand);
    EXPECT_DOUBLE_EQ(load[0], 0.5);  // peer's gossiped CRV load
    EXPECT_EQ(demand[0], 2u);
  });
  engine.ScheduleAfter(3.1, [&] {
    EXPECT_FALSE(plane.Fresh(0, 1));  // age 3.1 > 2: unknown, not wrong
    EXPECT_DOUBLE_EQ(plane.GlobalMeanWait(0), 1.0);  // own territory only
    const auto load = plane.GlobalCrvLoad(0, nullptr);
    EXPECT_DOUBLE_EQ(load[0], 0.0);
  });
  engine.Run();
}

TEST(FederationPlane, OnQueuedDeltaClampsLoadAndSaturatesDemand) {
  sim::Engine engine;
  net::NetworkFabric fabric(engine, net::FabricConfig{}, 23);
  FederationPlane plane(engine, fabric, TwoShards(), 4);
  plane.OnQueuedDelta(0, 2, 0.5, +1);
  plane.OnQueuedDelta(0, 2, 0.5, -1);
  plane.OnQueuedDelta(0, 2, 0.5, -1);  // over-release must not go negative
  EXPECT_DOUBLE_EQ(plane.Local(0).crv_load[2], 0.0);
  EXPECT_EQ(plane.Local(0).crv_demand[2], 0u);
}

TEST(FederationPlane, PickOffloadPeerPrefersFreshLowWaitPeers) {
  FederationConfig cfg;
  cfg.shards = 3;
  cfg.gossip_period = 1.0;
  cfg.staleness_bound = 5.0;
  sim::Engine engine;
  net::NetworkFabric fabric(engine, net::FabricConfig{}, 29);
  FederationPlane plane(engine, fabric, cfg, 6);
  // Before any gossip: no peer views exist, and the silence is not counted
  // as a staleness block (there is nothing to be stale).
  EXPECT_EQ(plane.PickOffloadPeer(0), kNoShard);
  EXPECT_EQ(plane.stats().offloads_blocked_stale, 0u);
  plane.RefreshLocal(0, 10.0, 2, 0);  // saturated home shard
  plane.RefreshLocal(1, 1.0, 2, 2);
  plane.RefreshLocal(2, 0.5, 2, 1);
  plane.Start([&engine] { return engine.Now() < 1.9; });
  engine.ScheduleAfter(2.5, [&] {
    // Both peers fresh with free slots: lowest gossiped wait wins.
    EXPECT_EQ(plane.PickOffloadPeer(0), 2u);
    // A shard with its own free slots never offloads.
    EXPECT_EQ(plane.PickOffloadPeer(1), kNoShard);
  });
  engine.Run();
}

TEST(FederationPlane, PickOffloadPeerHysteresisAndStaleBlock) {
  sim::Engine engine;
  net::NetworkFabric fabric(engine, net::FabricConfig{}, 31);
  FederationPlane plane(engine, fabric, TwoShards(1.0, 2.0), 4);
  plane.RefreshLocal(0, 1.0, 2, 0);
  plane.RefreshLocal(1, 0.9, 2, 3);  // busy-ish: inside the hysteresis band
  plane.Start([&engine] { return engine.Now() < 1.8; });
  engine.ScheduleAfter(1.9, [&] {
    // 0.9 >= offload_factor (0.8) * 1.0: not enough of a win to offload.
    EXPECT_EQ(plane.PickOffloadPeer(0), kNoShard);
    EXPECT_EQ(plane.stats().offloads_blocked_stale, 0u);
  });
  engine.ScheduleAfter(3.5, [&] {
    // The only candidate's view has aged out: blocked on staleness, and the
    // block is counted (this is the "degrade, don't guess" path).
    EXPECT_EQ(plane.PickOffloadPeer(0), kNoShard);
    EXPECT_EQ(plane.stats().offloads_blocked_stale, 1u);
  });
  engine.Run();
}

// ---- Auditor rules --------------------------------------------------------

obs::Event Ev(obs::EventType type, std::uint32_t job, std::uint32_t machine,
              std::uint32_t task, double value = 0, double time = 1.0) {
  obs::Event e;
  e.time = time;
  e.type = type;
  e.job = job;
  e.machine = machine;
  e.task = task;
  e.value = value;
  return e;
}

TEST(Auditor, FedBindSendAcceptPairIsClean) {
  obs::InvariantAuditor auditor;
  auditor.OnEvent(Ev(obs::EventType::kFedBindSend, 1, 5, 0));
  auditor.OnEvent(Ev(obs::EventType::kFedBindAccept, 1, 5, 0));
  auditor.Finish();
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  EXPECT_EQ(auditor.fed_binds_sent(), 1u);
  EXPECT_EQ(auditor.fed_binds_closed(), 1u);
}

TEST(Auditor, FedBindCloseWithoutSendIsViolation) {
  obs::InvariantAuditor auditor;
  auditor.OnEvent(Ev(obs::EventType::kFedBindReject, 1, 5, 0));
  EXPECT_FALSE(auditor.ok());
}

TEST(Auditor, FedBindLeftOpenIsViolationAtFinish) {
  obs::InvariantAuditor auditor;
  auditor.OnEvent(Ev(obs::EventType::kFedBindSend, 1, 5, 0));
  EXPECT_TRUE(auditor.ok());  // still in flight: legal mid-run
  auditor.Finish();
  EXPECT_FALSE(auditor.ok());
}

TEST(Auditor, FedBindDoubleSendBeforeCloseIsViolation) {
  obs::InvariantAuditor auditor;
  auditor.OnEvent(Ev(obs::EventType::kFedBindSend, 1, 5, 0));
  auditor.OnEvent(Ev(obs::EventType::kFedBindSend, 1, 6, 0));
  EXPECT_FALSE(auditor.ok());
}

TEST(Auditor, FedBindAcceptOnDrainingMachineIsViolation) {
  obs::InvariantAuditor auditor;
  auditor.OnEvent(Ev(obs::EventType::kMachineDrain, obs::kNoId, 5, obs::kNoId));
  auditor.OnEvent(Ev(obs::EventType::kFedBindSend, 1, 5, 0));
  auditor.OnEvent(Ev(obs::EventType::kFedBindAccept, 1, 5, 0));
  EXPECT_FALSE(auditor.ok());
}

TEST(Auditor, GossipApplyVersionsMustStrictlyIncrease) {
  obs::InvariantAuditor auditor;
  // machine = receiver shard, task = origin shard, value = version.
  auditor.OnEvent(Ev(obs::EventType::kGossipApply, obs::kNoId, 0, 1, 3.0));
  auditor.OnEvent(Ev(obs::EventType::kGossipApply, obs::kNoId, 0, 1, 4.0));
  // Distinct (receiver, origin) pairs are independent streams.
  auditor.OnEvent(Ev(obs::EventType::kGossipApply, obs::kNoId, 1, 0, 2.0));
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  EXPECT_EQ(auditor.gossip_applies(), 3u);
  // Replaying version 4 on (0, 1) means a stale digest was applied.
  auditor.OnEvent(Ev(obs::EventType::kGossipApply, obs::kNoId, 0, 1, 4.0));
  EXPECT_FALSE(auditor.ok());
}

// ---- End-to-end -----------------------------------------------------------

TEST(Federation, SingleShardConfigNeverBuildsThePlane) {
  const auto cl = MakeFleet(8);
  sim::Engine engine;
  core::PhoenixScheduler sched(engine, cl, sched::SchedulerConfig{});
  FederationConfig cfg;  // shards = 1
  sched.EnableFederation(cfg);
  EXPECT_EQ(sched.federation(), nullptr);
}

TEST(Federation, TwoShardAuditedRunGossipsAndStaysClean) {
  const auto cl = MakeFleet(30);
  const auto t = MakeTrace(300, 30);
  runner::RunOptions ro;
  ro.scheduler = "phoenix";
  ro.config.seed = 13;
  ro.obs.audit = true;  // RunSimulation aborts on any auditor violation
  ro.federation.shards = 2;
  ro.federation.gossip_period = 3.0;
  ro.federation.staleness_bound = 30.0;
  const auto report = runner::RunSimulation(t, cl, ro);
  EXPECT_GT(report.counters.fed_gossip_published, 0u);
  EXPECT_GT(report.counters.fed_gossip_applied, 0u);
  EXPECT_GT(report.counters.heartbeats, 0u);
  report.CheckInvariants();
}

// Exposes the protected fabric so the test can cut the gossip links mid-run.
class OpenPhoenix : public core::PhoenixScheduler {
 public:
  using core::PhoenixScheduler::PhoenixScheduler;
  using sched::SchedulerBase::fabric;
};

TEST(Federation, PartitionedGossipEndpointsDegradeButStayClean) {
  const auto cl = MakeFleet(24);
  const auto t = MakeTrace(240, 24);
  sim::Engine engine;
  sched::SchedulerConfig cfg;
  cfg.seed = 17;
  OpenPhoenix sched(engine, cl, cfg);
  obs::InvariantAuditor auditor;
  sched.AttachAuditor(&auditor);
  FederationConfig fed;
  fed.shards = 2;
  fed.gossip_period = 2.0;
  fed.staleness_bound = 8.0;
  sched.EnableFederation(fed);
  sched.SubmitTrace(t);
  // Cut shard 1's gossip endpoint off mid-run: digests in both directions
  // die, views age past the staleness bound, and placement must fall back
  // to home territory — degraded, never incorrect.
  const cluster::MachineId ep1 = sched.federation()->shard_map().endpoint(1);
  engine.ScheduleAfter(20.0, [&sched, ep1] {
    sched.fabric().Partition({ep1}, 120.0);
  });
  engine.Run();
  sched.FinalAudit();
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  EXPECT_TRUE(sched.AllJobsDone());
  EXPECT_GT(sched.fabric().stats().partition_drops, 0u);
  EXPECT_GT(sched.federation()->stats().digests_published, 0u);
  sched.BuildReport().CheckInvariants();
}

TEST(Federation, FingerprintIsIdenticalAcrossThreadBudgets) {
  const auto cl = MakeFleet(24);
  const auto t = MakeTrace(240, 24);
  runner::RunOptions ro;
  ro.scheduler = "phoenix";
  ro.config.seed = 19;
  // Chaos on: gossip digests ride the lossy fabric, so this also checks the
  // per-message RNG keeps the multi-shard stream thread-deterministic.
  ro.config.net.model = net::LatencyModel::kLognormal;
  ro.config.net.drop_rate = 0.03;
  ro.config.net.reorder_rate = 0.05;
  ro.federation.shards = 3;
  ro.federation.gossip_period = 2.0;
  ro.federation.staleness_bound = 10.0;
  std::vector<std::string> serial;
  {
    ScopedThreads threads(1);
    const runner::RepeatedRuns runs(t, cl, ro, 3);
    for (const auto& r : runs.reports()) {
      serial.push_back(metrics::Fingerprint(r));
    }
  }
  {
    ScopedThreads threads(4);
    const runner::RepeatedRuns runs(t, cl, ro, 3);
    ASSERT_EQ(runs.reports().size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(metrics::Fingerprint(runs.reports()[i]), serial[i])
          << "run " << i;
    }
  }
}

}  // namespace
}  // namespace phoenix
