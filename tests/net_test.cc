// Tests for the control-plane network fabric and its RPC layer: latency
// models, chaos injection (drop / duplicate / reorder / partition),
// per-message determinism, timeout/retry semantics, and the end-to-end
// guarantee that a lossy fabric degrades latency without losing jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "cluster/builder.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "runner/experiment.h"
#include "sim/engine.h"
#include "trace/generators.h"

namespace phoenix {
namespace {

using net::FabricConfig;
using net::LatencyModel;
using net::MessageKind;
using net::NetworkFabric;
using net::Rpc;
using net::RpcConfig;

// Collects the delivery times of `count` messages sent at t=0.
std::vector<double> DeliveryTimes(const FabricConfig& cfg, std::uint64_t seed,
                                  std::size_t count,
                                  double nominal = 1e-3) {
  sim::Engine engine;
  NetworkFabric fabric(engine, cfg, seed);
  std::vector<double> times;
  for (std::size_t i = 0; i < count; ++i) {
    fabric.Send(net::kControllerNode, static_cast<cluster::MachineId>(i),
                MessageKind::kProbe, nominal, [&engine, &times] {
                  times.push_back(engine.Now());
                  return true;
                });
  }
  engine.Run();
  std::sort(times.begin(), times.end());
  return times;
}

// ------------------------------------------------------------ latency models

TEST(Fabric, FastPathDeliversAtExactlyNominal) {
  sim::Engine engine;
  NetworkFabric fabric(engine, FabricConfig{}, 7);
  EXPECT_TRUE(fabric.FastPath());
  double arrival = -1;
  const net::MessageId id =
      fabric.Send(net::kControllerNode, 0, MessageKind::kProbe, 2e-3,
                  [&engine, &arrival] {
                    arrival = engine.Now();
                    return true;
                  });
  EXPECT_EQ(id, 0u);  // fast path skips per-message bookkeeping
  engine.Run();
  EXPECT_DOUBLE_EQ(arrival, 2e-3);
  EXPECT_EQ(fabric.stats().sent, 1u);
  EXPECT_EQ(fabric.stats().delivered, 1u);
}

TEST(Fabric, UniformJitterStaysInBand) {
  FabricConfig cfg;
  cfg.model = LatencyModel::kUniform;
  cfg.jitter = 0.25;
  const auto times = DeliveryTimes(cfg, 11, 200);
  ASSERT_EQ(times.size(), 200u);
  EXPECT_GE(times.front(), 0.75e-3);
  EXPECT_LE(times.back(), 1.25e-3);
  EXPECT_LT(times.front(), times.back());  // actually jittered
}

TEST(Fabric, LognormalIsPositiveAndMeanPreserving) {
  FabricConfig cfg;
  cfg.model = LatencyModel::kLognormal;
  cfg.sigma = 0.5;
  const auto times = DeliveryTimes(cfg, 13, 2000);
  ASSERT_EQ(times.size(), 2000u);
  EXPECT_GT(times.front(), 0.0);
  double sum = 0;
  for (const double t : times) sum += t;
  // mu = -sigma^2/2 keeps the multiplier mean at 1; a 2000-draw average
  // lands within a few percent of the nominal.
  EXPECT_NEAR(sum / times.size(), 1e-3, 0.1e-3);
}

TEST(Fabric, EmpiricalDrawsFromTheTable) {
  FabricConfig cfg;
  cfg.model = LatencyModel::kEmpirical;
  cfg.empirical = {1.0, 2.0, 4.0};
  const auto times = DeliveryTimes(cfg, 17, 300);
  for (const double t : times) {
    const double mult = t / 1e-3;
    const bool in_table = std::abs(mult - 1.0) < 1e-9 ||
                          std::abs(mult - 2.0) < 1e-9 ||
                          std::abs(mult - 4.0) < 1e-9;
    EXPECT_TRUE(in_table) << "multiplier " << mult;
  }
}

// -------------------------------------------------------------- determinism

TEST(Fabric, SameSeedsReproduceIdenticalDeliverySchedules) {
  FabricConfig cfg;
  cfg.model = LatencyModel::kLognormal;
  cfg.drop_rate = 0.1;
  cfg.duplicate_rate = 0.1;
  cfg.reorder_rate = 0.1;
  const auto a = DeliveryTimes(cfg, 99, 500);
  const auto b = DeliveryTimes(cfg, 99, 500);
  EXPECT_EQ(a, b);  // exact: same RNG streams, same outcomes
  const auto c = DeliveryTimes(cfg, 100, 500);
  EXPECT_NE(a, c);  // a different run seed decorrelates the chaos
}

// ------------------------------------------------------------------- chaos

TEST(Fabric, DropRateLosesMessagesAndConservationHolds) {
  FabricConfig cfg;
  cfg.drop_rate = 0.3;
  sim::Engine engine;
  NetworkFabric fabric(engine, cfg, 21);
  std::size_t arrivals = 0;
  for (int i = 0; i < 500; ++i) {
    fabric.Send(net::kControllerNode, 0, MessageKind::kProbe, 1e-3,
                [&arrivals] {
                  ++arrivals;
                  return true;
                });
  }
  engine.Run();
  const auto& s = fabric.stats();
  EXPECT_GT(s.dropped, 50u);
  EXPECT_LT(s.dropped, 250u);
  EXPECT_EQ(arrivals, s.delivered);
  // Every sent copy terminates exactly once.
  EXPECT_EQ(s.sent, s.delivered + s.dropped + s.partition_drops + s.expired);
}

TEST(Fabric, DuplicatesShareTheCallbackAndStaleCopiesExpire) {
  FabricConfig cfg;
  cfg.duplicate_rate = 0.5;
  sim::Engine engine;
  NetworkFabric fabric(engine, cfg, 23);
  std::size_t consumed = 0;
  for (int i = 0; i < 200; ++i) {
    // Receiver-side dedup: only the first copy of each message is consumed.
    auto seen = std::make_shared<bool>(false);
    fabric.Send(net::kControllerNode, 0, MessageKind::kProbe, 1e-3,
                [seen, &consumed] {
                  if (*seen) return false;
                  *seen = true;
                  ++consumed;
                  return true;
                });
  }
  engine.Run();
  const auto& s = fabric.stats();
  EXPECT_GT(s.duplicated, 50u);
  EXPECT_EQ(consumed, 200u);
  EXPECT_EQ(s.expired, s.duplicated);  // every extra copy arrived stale
  EXPECT_EQ(s.sent, 200u + s.duplicated);
  EXPECT_EQ(s.sent, s.delivered + s.dropped + s.partition_drops + s.expired);
}

// The message ledger of the lifetime test below: how many copies of each
// message were not lost on the wire, and how often each callback fired and
// was destroyed. Every copy that is not lost runs the callback once, so
// scheduled - fired copies are still in flight.
struct CopyLedger {
  std::map<int, int> scheduled;
  std::map<int, int> fired;
  std::map<int, int> destroyed;
  int sending = -1;  // the message whose Send is on the stack
  int next = 0;

  int InFlight(int msg) { return scheduled[msg] - fired[msg]; }
};

// A delivery callback that counts its own lifetime. A move hands the
// "armed" mark to the new instance, so `destroyed[msg]` counts how often
// the one armed instance died. Each run sends `fanout` fresh messages
// (growing the delivery pool while the callback is out of it).
struct LedgerProbe {
  NetworkFabric* fabric;
  CopyLedger* ledger;
  int msg;
  int fanout;
  bool armed = true;
  LedgerProbe(NetworkFabric* f, CopyLedger* l, int m, int fan)
      : fabric(f), ledger(l), msg(m), fanout(fan) {}
  LedgerProbe(LedgerProbe&& o) noexcept
      : fabric(o.fabric), ledger(o.ledger), msg(o.msg), fanout(o.fanout),
        armed(o.armed) {
    o.armed = false;
  }
  LedgerProbe(const LedgerProbe&) = delete;
  ~LedgerProbe() {
    if (armed) ++ledger->destroyed[msg];
  }
  bool operator()() {
    EXPECT_EQ(ledger->destroyed[msg], 0) << "message " << msg;
    for (int k = 0; k < fanout; ++k) {
      Send(fabric, ledger, /*fanout=*/0);
    }
    return ++ledger->fired[msg] == 1;  // later copies arrive stale
  }
  // Sends one fresh message and checks its callback's fate at once: lost on
  // every copy means destroyed now, otherwise alive until its copies land.
  static void Send(NetworkFabric* fabric, CopyLedger* ledger, int fanout) {
    const int msg = ledger->next++;
    const int outer = ledger->sending;
    ledger->sending = msg;
    fabric->Send(net::kControllerNode, 0, MessageKind::kProbe, 1e-3,
                 LedgerProbe(fabric, ledger, msg, fanout));
    ledger->sending = outer;
    const int expect = ledger->InFlight(msg) == 0 ? 1 : 0;
    EXPECT_EQ(ledger->destroyed[msg], expect) << "message " << msg;
  }
};

TEST(Fabric, DeliveryCallbackLivesExactlyAsLongAsItsLastCopy) {
  FabricConfig cfg;
  cfg.drop_rate = 0.3;
  cfg.duplicate_rate = 0.5;
  sim::Engine engine;
  NetworkFabric fabric(engine, cfg, 29);
  CopyLedger ledger;
  // A copy is sent, and lost on the wire, inside its message's Send call.
  fabric.set_emitter([&ledger](const obs::Event& e) {
    if (e.type == obs::EventType::kMsgSend) ++ledger.scheduled[ledger.sending];
    if (e.type == obs::EventType::kMsgDrop) --ledger.scheduled[ledger.sending];
  });
  // Every other root message fans out two more sends each time it runs.
  for (int i = 0; i < 300; ++i) {
    LedgerProbe::Send(&fabric, &ledger, /*fanout=*/i % 2 == 0 ? 2 : 0);
  }
  while (engine.Step()) {
    // After each arrival, a callback is alive exactly while a copy of its
    // message is still in flight.
    for (int msg = 0; msg < ledger.next; ++msg) {
      ASSERT_EQ(ledger.destroyed[msg], ledger.InFlight(msg) == 0 ? 1 : 0)
          << "message " << msg;
    }
  }
  ASSERT_GT(ledger.next, 300);  // running callbacks sent too
  int lost = 0;
  int doubled = 0;
  for (int msg = 0; msg < ledger.next; ++msg) {
    EXPECT_EQ(ledger.destroyed[msg], 1) << "message " << msg;
    EXPECT_EQ(ledger.fired[msg], ledger.scheduled[msg]) << "message " << msg;
    lost += ledger.scheduled[msg] == 0;
    doubled += ledger.scheduled[msg] == 2;
  }
  EXPECT_GT(lost, 0);
  EXPECT_GT(doubled, 0);
  const auto& s = fabric.stats();
  EXPECT_EQ(s.sent, s.delivered + s.dropped + s.partition_drops + s.expired);
}

TEST(Fabric, PartitionSeversTheCutAndHeals) {
  FabricConfig cfg;
  cfg.drop_rate = 1e-12;  // non-ideal config so sends take the chaos path
  sim::Engine engine;
  NetworkFabric fabric(engine, cfg, 25);
  fabric.Partition({0, 1}, /*duration=*/10.0);
  EXPECT_TRUE(fabric.PartitionActive());
  EXPECT_TRUE(fabric.Severed(net::kControllerNode, 0));
  EXPECT_TRUE(fabric.Severed(2, 1));
  EXPECT_FALSE(fabric.Severed(0, 1));  // same side of the cut
  EXPECT_FALSE(fabric.Severed(2, 3));
  EXPECT_FALSE(fabric.Severed(2, net::kControllerNode));

  std::size_t arrivals = 0;
  const auto count = [&arrivals] {
    ++arrivals;
    return true;
  };
  fabric.Send(net::kControllerNode, 0, MessageKind::kProbe, 1e-3, count);
  engine.Run();  // runs past the heal event
  EXPECT_EQ(arrivals, 0u);
  EXPECT_EQ(fabric.stats().partition_drops, 1u);
  EXPECT_FALSE(fabric.PartitionActive());
  fabric.Send(net::kControllerNode, 0, MessageKind::kProbe, 1e-3, count);
  engine.Run();
  EXPECT_EQ(arrivals, 1u);
}

// --------------------------------------------------------------------- rpc

TEST(Rpc, RetriesThroughLossUntilDelivered) {
  FabricConfig cfg;
  cfg.drop_rate = 0.6;
  RpcConfig rpc_cfg;
  rpc_cfg.max_retries = 20;
  sim::Engine engine;
  NetworkFabric fabric(engine, cfg, 27);
  Rpc rpc(engine, fabric, rpc_cfg);
  std::size_t delivered = 0, failed = 0;
  for (int i = 0; i < 50; ++i) {
    rpc.Send(net::kControllerNode, 0, MessageKind::kProbe, 1e-3,
             [&delivered] { ++delivered; }, [&failed] { ++failed; });
  }
  engine.Run();
  // P(21 consecutive drops at 0.6) ~ 2e-5: every call lands.
  EXPECT_EQ(delivered, 50u);
  EXPECT_EQ(failed, 0u);
  EXPECT_GT(rpc.stats().retries, 0u);
}

TEST(Rpc, PermanentPartitionExhaustsRetriesAndFailsOver) {
  FabricConfig cfg;
  cfg.drop_rate = 1e-12;  // non-ideal so the reliable path engages
  RpcConfig rpc_cfg;
  rpc_cfg.max_retries = 2;
  sim::Engine engine;
  NetworkFabric fabric(engine, cfg, 29);
  Rpc rpc(engine, fabric, rpc_cfg);
  fabric.Partition({0}, /*duration=*/1e9);
  bool delivered = false, failed = false;
  rpc.Send(net::kControllerNode, 0, MessageKind::kProbe, 1e-3,
           [&delivered] { delivered = true; }, [&failed] { failed = true; });
  engine.Run(/*until=*/1e6);
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(failed);
  EXPECT_EQ(rpc.stats().retries, 2u);
  EXPECT_EQ(rpc.stats().failures, 1u);
  EXPECT_EQ(fabric.stats().partition_drops, 3u);  // every attempt severed
}

TEST(Rpc, RoundTripResolvesOnceDespiteRetriesAndDuplicates) {
  FabricConfig cfg;
  cfg.drop_rate = 0.4;
  cfg.duplicate_rate = 0.3;
  RpcConfig rpc_cfg;
  rpc_cfg.max_retries = 20;
  sim::Engine engine;
  NetworkFabric fabric(engine, cfg, 31);
  Rpc rpc(engine, fabric, rpc_cfg);
  std::size_t successes = 0, failures = 0;
  std::vector<Rpc::CallId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(rpc.RoundTrip(
        0, net::kControllerNode, MessageKind::kFetchRequest, 1e-3,
        [&successes] { ++successes; }, [&failures] { ++failures; }));
    EXPECT_NE(ids.back(), 0u);  // always a live, cancellable handle
  }
  engine.Run();
  EXPECT_EQ(successes, 50u);  // exactly once each, never double-resolved
  EXPECT_EQ(failures, 0u);
  for (const auto id : ids) EXPECT_FALSE(rpc.Alive(id));
  const auto& s = fabric.stats();
  EXPECT_EQ(s.sent, s.delivered + s.dropped + s.partition_drops + s.expired);
}

TEST(Rpc, CancelSilencesTheCallAndExpiresInFlightCopies) {
  FabricConfig cfg;
  cfg.drop_rate = 1e-12;  // non-ideal; first attempt will be in flight
  sim::Engine engine;
  NetworkFabric fabric(engine, cfg, 33);
  Rpc rpc(engine, fabric, RpcConfig{});
  bool resolved = false, failed = false;
  const Rpc::CallId id = rpc.RoundTrip(
      0, net::kControllerNode, MessageKind::kFetchRequest, 1e-3,
      [&resolved] { resolved = true; }, [&failed] { failed = true; });
  ASSERT_TRUE(rpc.Alive(id));
  rpc.Cancel(id);
  EXPECT_FALSE(rpc.Alive(id));
  engine.Run();
  EXPECT_FALSE(resolved);
  EXPECT_FALSE(failed);
  EXPECT_EQ(rpc.stats().cancelled, 1u);
  EXPECT_EQ(fabric.stats().expired, 1u);  // the in-flight request went stale
}

TEST(Rpc, GenerationWrapSkipsZeroAndKeepsStaleIdsStale) {
  sim::Engine engine;
  NetworkFabric fabric(engine, FabricConfig{}, 37);
  Rpc rpc(engine, fabric, RpcConfig{});
  // Occupy slot 0, then free it so Issue() recycles it below.
  const Rpc::CallId first = rpc.RoundTrip(
      0, net::kControllerNode, MessageKind::kFetchRequest, 1e-3,
      [] { FAIL(); }, [] { FAIL(); });
  ASSERT_EQ(static_cast<std::uint32_t>(first), 1u);  // slot 0
  rpc.Cancel(first);
  // Plant the slot one step before the wrap: the next tenant gets the last
  // 32-bit generation, the one after that crosses 2^32.
  rpc.SetGenerationForTest(0, 0xFFFFFFFEu);
  const Rpc::CallId pre_wrap = rpc.RoundTrip(
      0, net::kControllerNode, MessageKind::kFetchRequest, 1e-3,
      [] { FAIL(); }, [] { FAIL(); });
  EXPECT_EQ(pre_wrap >> 32, 0xFFFFFFFFull);
  rpc.Cancel(pre_wrap);
  bool resolved = false;
  const Rpc::CallId wrapped = rpc.RoundTrip(
      0, net::kControllerNode, MessageKind::kFetchRequest, 1e-3,
      [&resolved] { resolved = true; }, [] { FAIL(); });
  // The wrapped generation must skip 0: an id whose generation bits are all
  // zero would be indistinguishable from a never-issued slot (and id 0 is
  // the "no call" sentinel), so the slot's cycle is 2^32 - 1, not 2^32.
  EXPECT_NE(wrapped >> 32, 0ull);
  EXPECT_TRUE(rpc.Alive(wrapped));
  // The ancient pre-wrap id neither reads as live nor cancels the new call.
  EXPECT_FALSE(rpc.Alive(pre_wrap));
  rpc.Cancel(pre_wrap);
  EXPECT_TRUE(rpc.Alive(wrapped));
  // Nor does the hypothetical generation-0 id the unfixed wrap would mint.
  const Rpc::CallId zero_gen = static_cast<Rpc::CallId>(1);  // gen 0, slot 0
  EXPECT_FALSE(rpc.Alive(zero_gen));
  rpc.Cancel(zero_gen);
  EXPECT_TRUE(rpc.Alive(wrapped));
  engine.Run();
  EXPECT_TRUE(resolved);
}

TEST(Rpc, FastPathRoundTripTakesExactlyTheNominal) {
  sim::Engine engine;
  NetworkFabric fabric(engine, FabricConfig{}, 35);
  Rpc rpc(engine, fabric, RpcConfig{});
  double done = -1;
  const Rpc::CallId id = rpc.RoundTrip(
      0, net::kControllerNode, MessageKind::kFetchRequest, 5e-4,
      [&engine, &done] { done = engine.Now(); }, [] { FAIL(); });
  EXPECT_TRUE(rpc.Alive(id));
  engine.Run();
  EXPECT_DOUBLE_EQ(done, 5e-4);
  EXPECT_FALSE(rpc.Alive(id));
  EXPECT_EQ(rpc.stats().retries, 0u);
}

// ----------------------------------------------------------- whole-scheduler

class ChaosSchedulerTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ChaosSchedulerTest, LossyFabricLosesNoJobs) {
  // 5% drop + lognormal latency + duplicates + reordering, auditor on: the
  // RPC retry layer must keep every job completing, probe accounting
  // balanced, and the message-conservation rule clean (the auditor aborts
  // the run on any violation).
  const auto cl = cluster::BuildCluster({.num_machines = 40, .seed = 61});
  const auto t = trace::GenerateGoogleTrace(800, 40, 0.75, 61);
  runner::RunOptions o;
  o.scheduler = GetParam();
  o.config.seed = 61;
  o.config.net.model = net::LatencyModel::kLognormal;
  o.config.net.drop_rate = 0.05;
  o.config.net.duplicate_rate = 0.02;
  o.config.net.reorder_rate = 0.05;
  o.config.rpc.max_retries = 6;
  o.obs.audit = true;
  const auto report = runner::RunSimulation(t, cl, o);
  EXPECT_EQ(report.jobs.size(), t.size());
  EXPECT_GT(report.counters.net_messages_sent, 0u);
  EXPECT_GT(report.counters.net_messages_dropped, 0u);
  EXPECT_GT(report.counters.rpc_retries, 0u);
  report.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ChaosSchedulerTest,
                         ::testing::Values("phoenix", "eagle-c", "hawk-c",
                                           "sparrow-c"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(ChaosScheduler, DefaultFabricReportsZeroChaosCounters) {
  const auto cl = cluster::BuildCluster({.num_machines = 20, .seed = 67});
  const auto t = trace::GenerateGoogleTrace(300, 20, 0.7, 67);
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.config.seed = 67;
  const auto report = runner::RunSimulation(t, cl, o);
  EXPECT_GT(report.counters.net_messages_sent, 0u);
  EXPECT_EQ(report.counters.net_messages_dropped, 0u);
  EXPECT_EQ(report.counters.net_messages_duplicated, 0u);
  EXPECT_EQ(report.counters.net_messages_expired, 0u);
  EXPECT_EQ(report.counters.rpc_retries, 0u);
  EXPECT_EQ(report.counters.rpc_failures, 0u);
}

}  // namespace
}  // namespace phoenix
