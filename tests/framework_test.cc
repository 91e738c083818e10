// White-box tests of the scheduler framework's internal machinery, driven
// through a test subclass that exposes the protected helpers, the dense
// heartbeat hints checked against their worker records after every event,
// and Phoenix's published wait estimates checked against the estimators
// after every heartbeat.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/builder.h"
#include "cluster/membership.h"
#include "core/phoenix.h"
#include "elastic/controller.h"
#include "metrics/report.h"
#include "obs/audit.h"
#include "packing/demand.h"
#include "power/controller.h"
#include "power/manager.h"
#include "runner/registry.h"
#include "sched/sparrow.h"
#include "sim/engine.h"
#include "trace/generators.h"

namespace phoenix::sched {
namespace {

using cluster::MachineId;

class Harness : public SparrowScheduler {
 public:
  Harness(sim::Engine& e, const cluster::Cluster& c,
          const SchedulerConfig& cfg)
      : SparrowScheduler(e, c, cfg) {}

  using SparrowScheduler::FilterByPlacement;
  using SparrowScheduler::IndexRespectingSlack;
  using SparrowScheduler::NoteRackCommitment;
  using SparrowScheduler::PopQueueAt;
  using SparrowScheduler::RemoveQueueAt;
  using SparrowScheduler::SendEntry;
  using SparrowScheduler::TakeNextTaskIndex;
  using SparrowScheduler::counters;
  using SparrowScheduler::worker;
};

class FrameworkTest : public ::testing::Test {
 protected:
  FrameworkTest()
      : cluster_(cluster::BuildCluster(
            {.num_machines = 20, .seed = 3, .machines_per_rack = 5})),
        harness_(engine_, cluster_, SchedulerConfig{}) {
    spec_.id = 0;
    spec_.submit_time = 0;
    spec_.task_durations = {1.0, 2.0, 3.0};
    job_.spec = &spec_;
    job_.id = 0;
  }

  QueueEntry Entry(double est) {
    QueueEntry e;
    e.kind = QueueEntry::Kind::kProbe;
    e.job = 0;
    e.est_duration = est;
    return e;
  }

  sim::Engine engine_;
  cluster::Cluster cluster_;
  Harness harness_;
  trace::Job spec_;
  JobRuntime job_;
};

// ---------------------------------------------------------------- queues

TEST_F(FrameworkTest, PopChargesBypassesToSkippedEntries) {
  WorkerState& w = harness_.worker(0);
  w.queue = {Entry(1), Entry(2), Entry(3)};
  const QueueEntry taken = harness_.PopQueueAt(w, 2);
  EXPECT_DOUBLE_EQ(taken.est_duration, 3.0);
  ASSERT_EQ(w.queue.size(), 2u);
  EXPECT_EQ(w.queue[0].bypass_count, 1u);
  EXPECT_EQ(w.queue[1].bypass_count, 1u);
}

TEST_F(FrameworkTest, PopAtHeadChargesNobody) {
  WorkerState& w = harness_.worker(1);
  w.queue = {Entry(1), Entry(2)};
  harness_.PopQueueAt(w, 0);
  EXPECT_EQ(w.queue[0].bypass_count, 0u);
}

TEST_F(FrameworkTest, RemoveDoesNotChargeBypasses) {
  WorkerState& w = harness_.worker(2);
  w.queue = {Entry(1), Entry(2), Entry(3)};
  harness_.RemoveQueueAt(w, 2);
  EXPECT_EQ(w.queue[0].bypass_count, 0u);
  EXPECT_EQ(w.queue[1].bypass_count, 0u);
}

TEST_F(FrameworkTest, QueueAccountingTracksEstimates) {
  WorkerState& w = harness_.worker(3);
  w.queue = {Entry(1), Entry(2)};
  w.est_queued_work = 3.0;
  harness_.PopQueueAt(w, 1);
  EXPECT_DOUBLE_EQ(w.est_queued_work, 1.0);
  harness_.PopQueueAt(w, 0);
  EXPECT_DOUBLE_EQ(w.est_queued_work, 0.0);
}

TEST_F(FrameworkTest, SendEntryDeliversAfterDelay) {
  QueueEntry e = Entry(5);
  harness_.SendEntry(7, e, 0.25);
  engine_.Run(0.2);
  EXPECT_TRUE(harness_.worker(7).queue.empty() ||
              harness_.worker(7).busy);  // not yet delivered at 0.2
  // Run just past delivery but short of the probe-resolution RTT (there is
  // no submitted job behind this synthetic probe to resolve against).
  engine_.Run(0.2501);
  // The probe was delivered and immediately claimed the idle slot.
  EXPECT_TRUE(harness_.worker(7).busy);
}

// ---------------------------------------------------------------- slack

TEST_F(FrameworkTest, SlackZeroForcesStrictFifo) {
  SchedulerConfig cfg;
  cfg.slack_threshold = 0;
  Harness strict(engine_, cluster_, cfg);
  WorkerState& w = strict.worker(0);
  w.queue = {Entry(9), Entry(1)};
  // Every entry trivially exceeds a zero slack budget: head runs first.
  EXPECT_EQ(strict.IndexRespectingSlack(w, 1), 0u);
}

// ---------------------------------------------------------------- placement

TEST_F(FrameworkTest, SpreadFilterDropsUsedRacks) {
  spec_.placement = trace::PlacementPref::kSpread;
  job_.used_racks.Resize(cluster_.num_racks());
  job_.used_racks.Set(0);  // rack 0 = machines 0..4
  std::vector<MachineId> candidates = {1, 6, 11};
  harness_.FilterByPlacement(job_, candidates);
  EXPECT_EQ(candidates, (std::vector<MachineId>{6, 11}));
}

TEST_F(FrameworkTest, SpreadFilterFallsBackWhenEmpty) {
  spec_.placement = trace::PlacementPref::kSpread;
  job_.used_racks.Resize(cluster_.num_racks());
  job_.used_racks.Set(0);
  std::vector<MachineId> candidates = {1, 2};  // both rack 0
  harness_.FilterByPlacement(job_, candidates);
  EXPECT_EQ(candidates.size(), 2u);  // soft preference: keep the originals
}

TEST_F(FrameworkTest, ColocateFilterKeepsAnchorRack) {
  spec_.placement = trace::PlacementPref::kColocate;
  job_.used_racks.Resize(cluster_.num_racks());
  job_.anchor_rack = 2;  // machines 10..14
  std::vector<MachineId> candidates = {1, 11, 12, 19};
  harness_.FilterByPlacement(job_, candidates);
  EXPECT_EQ(candidates, (std::vector<MachineId>{11, 12}));
}

TEST_F(FrameworkTest, ColocateFilterNoAnchorNoOp) {
  spec_.placement = trace::PlacementPref::kColocate;
  job_.used_racks.Resize(cluster_.num_racks());
  std::vector<MachineId> candidates = {1, 11};
  harness_.FilterByPlacement(job_, candidates);
  EXPECT_EQ(candidates.size(), 2u);
}

TEST_F(FrameworkTest, NoPreferenceFilterNoOp) {
  std::vector<MachineId> candidates = {1, 2, 3};
  harness_.FilterByPlacement(job_, candidates);
  EXPECT_EQ(candidates.size(), 3u);
}

TEST_F(FrameworkTest, RackCommitmentTracksSpread) {
  spec_.placement = trace::PlacementPref::kSpread;
  job_.used_racks.Resize(cluster_.num_racks());
  harness_.NoteRackCommitment(job_, 1);
  EXPECT_TRUE(job_.used_racks.Test(1));
  EXPECT_EQ(harness_.counters().placement_spread_violations, 0u);
  harness_.NoteRackCommitment(job_, 1);  // doubled up
  EXPECT_EQ(harness_.counters().placement_spread_violations, 1u);
}

TEST_F(FrameworkTest, RackCommitmentTracksColocate) {
  spec_.placement = trace::PlacementPref::kColocate;
  job_.used_racks.Resize(cluster_.num_racks());
  harness_.NoteRackCommitment(job_, 2);
  EXPECT_EQ(job_.anchor_rack, 2u);
  harness_.NoteRackCommitment(job_, 2);
  EXPECT_EQ(harness_.counters().placement_colocate_misses, 0u);
  harness_.NoteRackCommitment(job_, 3);
  EXPECT_EQ(harness_.counters().placement_colocate_misses, 1u);
}

// ---------------------------------------------------------------- replay

TEST_F(FrameworkTest, TakeNextTaskPrefersReplays) {
  job_.next_unplaced = 2;
  job_.replay_tasks = {0};
  EXPECT_EQ(harness_.TakeNextTaskIndex(job_), 0u);  // replay first
  EXPECT_TRUE(job_.replay_tasks.empty());
  EXPECT_EQ(harness_.TakeNextTaskIndex(job_), 2u);  // then fresh
  EXPECT_EQ(job_.next_unplaced, 3u);
}

TEST_F(FrameworkTest, AllPlacedAccountsForReplays) {
  job_.next_unplaced = 3;  // all 3 fresh tasks handed out
  EXPECT_TRUE(job_.AllPlaced());
  job_.replay_tasks = {1};
  EXPECT_FALSE(job_.AllPlaced());
}

// ---------------------------------------------------------------- hints

// One small run per case, covering the paths that move a hint: packing with
// gang and malleable jobs, parking and DVFS, failures, elastic churn,
// sticky fetches, migrations and a lossy fabric whose give-ups abort
// fetches and steal transfers.
struct HintCase {
  const char* name;
  const char* scheduler;
  bool packing = false;
  bool gang_malleable = false;
  bool power = false;  // policy all: park and DVFS
  bool dvfs_only = false;
  bool failures = false;
  bool elastic = false;
  double load = 0.85;
  double drop = 0;
  std::size_t rpc_retries = 3;
  /// A slow fabric (seconds one way) widens the window in which a sticky
  /// fetch can land after its job has been fully placed elsewhere.
  double one_way = 0;
};

// The first disagreement between the scheduler's hints, running sums and
// short-probe total and the values recomputed from its worker records, or
// "" when there is none.
std::string HintMismatch(const SchedulerBase& s, const trace::Trace& t,
                         bool packing,
                         const packing::ResourceVector& mean_demand) {
  const cluster::MembershipView* view = s.membership();
  std::size_t live_count = 0;
  std::uint64_t live_copies = 0;
  std::uint64_t short_probes = 0;
  std::ostringstream out;
  for (MachineId id = 0; id < s.num_machines(); ++id) {
    const WorkerState& w = s.worker_state(id);
    const bool bindable = view == nullptr || view->Bindable(id);
    const bool live = bindable && !w.failed;
    const bool occupied = w.busy || !w.queue.empty() || !w.runs.empty();
    const bool gate = bindable && !w.steal_inflight && !w.busy &&
                      w.queue.empty() && (packing || w.runs.empty());
    bool long_busy = w.long_entries > 0;
    for (const Run& run : w.runs) {
      const trace::Job& job = t.jobs()[run.job];
      if (job.mean_task_duration() > t.short_cutoff()) long_busy = true;
    }
    for (const QueueEntry& e : w.queue) {
      if (e.kind == QueueEntry::Kind::kProbe && e.short_class) ++short_probes;
    }
    if (live) {
      ++live_count;
      if (packing) live_copies += w.residual.CopiesOf(mean_demand);
    }
    if (s.live().Test(id) != live) out << "live of " << id << "; ";
    if (s.Occupied(id) != occupied) out << "occupied of " << id << "; ";
    if (s.StealGate(id) != gate) out << "steal gate of " << id << "; ";
    if (s.LongBusy(id) != long_busy) out << "long busy of " << id << "; ";
    if (!out.str().empty()) return out.str();
  }
  if (s.live_count() != live_count) out << "live count; ";
  if (s.live_mean_copies() != live_copies) out << "live mean copies; ";
  if (s.short_probes_queued() != short_probes) out << "short probe total; ";
  return out.str();
}

// Builds the case's scheduler.
using MakeFn = std::function<std::unique_ptr<SchedulerBase>(
    sim::Engine&, const cluster::Cluster&, const SchedulerConfig&)>;
// The first disagreement `check` finds in the scheduler, or "".
using CheckFn = std::function<std::string(
    const SchedulerBase&, const trace::Trace&, const SchedulerConfig&)>;

// Runs the case one event at a time, calling `check` before the first event
// and after each one, and stops at the first disagreement. The run must
// then have drained with a clean audit. Returns the run's report.
metrics::SimReport StepAndCheck(const HintCase& c, const MakeFn& make,
                                const CheckFn& check) {
  SCOPED_TRACE(c.name);
  constexpr std::size_t kMachines = 40;
  constexpr std::uint64_t kSeed = 11;
  const auto cl = cluster::BuildCluster({.num_machines = kMachines,
                                         .seed = kSeed});
  trace::GeneratorOptions gen = trace::ProfileByName("google");
  gen.num_jobs = 300;
  gen.num_workers = kMachines;
  gen.target_load = c.load;
  gen.seed = kSeed;
  SchedulerConfig cfg;
  cfg.seed = kSeed;
  if (c.packing) cfg.packing.enabled = true;
  if (c.gang_malleable) {
    gen.gang_fraction = cfg.packing.gang_fraction = 0.1;
    gen.malleable_fraction = cfg.packing.malleable_fraction = 0.1;
  }
  if (c.failures) {
    cfg.machine_mtbf = 3000;
    cfg.machine_mttr = 200;
  }
  cfg.net.drop_rate = c.drop;
  cfg.net.duplicate_rate = c.drop;
  cfg.net.reorder_rate = c.drop;
  cfg.rpc.max_retries = c.rpc_retries;
  if (c.one_way > 0) cfg.net.one_way = c.one_way;
  const trace::Trace t = trace::GenerateTrace("google", gen);

  sim::Engine engine;
  std::unique_ptr<SchedulerBase> s = make(engine, cl, cfg);
  obs::InvariantAuditor auditor;
  s->AttachAuditor(&auditor);
  std::unique_ptr<cluster::MembershipView> view;
  std::unique_ptr<elastic::ElasticityController> elastic;
  if (c.elastic) {
    elastic::ElasticConfig e;
    e.enabled = true;
    e.base_machines = 24;
    e.reserve_machines = 10;
    e.transient_machines = 6;
    e.transient_target = 6;
    e.warmup_delay = 20.0;
    e.drain_grace = 30.0;
    e.reclaim_rate = 1.0 / 300.0;
    e.reclaim_grace = 10.0;
    view = std::make_unique<cluster::MembershipView>(cl, e.base_machines);
    s->SetMembership(view.get());
    elastic = std::make_unique<elastic::ElasticityController>(engine, *s,
                                                              *view, e);
  }
  std::unique_ptr<power::PowerManager> manager;
  std::unique_ptr<power::PowerController> controller;
  if (c.power || c.dvfs_only) {
    if (!view) {
      view = std::make_unique<cluster::MembershipView>(cl, cl.size());
      s->SetMembership(view.get());
    }
    power::PowerConfig pc;
    pc.enabled = true;
    pc.policy.park = !c.dvfs_only;
    manager = std::make_unique<power::PowerManager>(cl, pc);
    s->SetPower(manager.get());
    controller = std::make_unique<power::PowerController>(
        engine, *s, *view, *manager, c.elastic ? 34 : cl.size());
  }
  s->SubmitTrace(t);
  if (elastic) elastic->Start();
  if (controller) controller->Start();

  std::uint64_t events = 0;
  std::string mismatch = check(*s, t, cfg);
  while (mismatch.empty() && engine.Step()) {
    ++events;
    mismatch = check(*s, t, cfg);
  }
  EXPECT_EQ(mismatch, "") << "after event " << events;
  EXPECT_TRUE(s->AllJobsDone());
  s->FinalAudit();
  EXPECT_TRUE(auditor.ok()) << auditor.Summary();
  return s->BuildReport();
}

void StepAndCheckHints(const HintCase& c) {
  StepAndCheck(
      c,
      [&c](sim::Engine& engine, const cluster::Cluster& cl,
           const SchedulerConfig& cfg) {
        return runner::MakeScheduler(c.scheduler, engine, cl, cfg);
      },
      [&c](const SchedulerBase& s, const trace::Trace& t,
           const SchedulerConfig& cfg) {
        return HintMismatch(s, t, c.packing, packing::MeanDemand(cfg.packing));
      });
}

TEST(DenseHints, MatchWorkerRecordsAfterEveryEvent) {
  const HintCase cases[] = {
      {.name = "packed gang/malleable, failures, chaos",
       .scheduler = "phoenix", .packing = true, .gang_malleable = true,
       .failures = true, .drop = 0.05},
      {.name = "power all, chaos", .scheduler = "phoenix", .power = true,
       .drop = 0.05},
      {.name = "packed DVFS, failures", .scheduler = "eagle-c",
       .packing = true, .dvfs_only = true, .failures = true},
      {.name = "sticky fetches, failures, chaos", .scheduler = "eagle-c",
       .failures = true, .drop = 0.05},
      {.name = "sticky fetches on a slow fabric", .scheduler = "eagle-c",
       .load = 0.5, .one_way = 0.05},
      {.name = "elastic churn, power all, chaos", .scheduler = "hawk-c",
       .power = true, .elastic = true, .drop = 0.05},
      {.name = "migrations, failures", .scheduler = "yacc-d",
       .failures = true},
      {.name = "give-ups on a lossy fabric", .scheduler = "phoenix",
       .failures = true, .drop = 0.2, .rpc_retries = 0},
  };
  for (const HintCase& c : cases) StepAndCheckHints(c);
}

// ------------------------------------------------------- heartbeat oracle

// Phoenix with an oracle on its heartbeat. After each ideal-fabric,
// unsharded tick (the ticks that republish only the moved estimators),
// every machine's published E[W] must equal its estimator's, its CRV mark
// must be (congested && E[W] > qwait_threshold), and the running mark count
// must equal the number of marks. The first disagreement is kept.
class WaitOracle : public core::PhoenixScheduler {
 public:
  using PhoenixScheduler::PhoenixScheduler;

  /// From the first tick at or after `at` on, cuts machine 0 off from the
  /// controller for half a heartbeat at every other tick, so those ticks'
  /// reports transit the fabric and, on a fabric slower than a heartbeat,
  /// land after the next tick has republished.
  void PartitionFrom(double at) { partition_from_ = at; }

  const std::string& mismatch() const { return mismatch_; }
  std::uint64_t checked_ticks() const { return checked_ticks_; }
  std::uint64_t fabric_ticks() const { return fabric_ticks_; }

 protected:
  void OnHeartbeat(MachineId lo, MachineId hi) override {
    if (partition_from_ >= 0 && engine().Now() >= partition_from_) {
      if (cut_) fabric().Partition({0}, config().heartbeat_interval / 2);
      cut_ = !cut_;
    }
    const bool moved_only = fabric().FastPath() && federation() == nullptr;
    PhoenixScheduler::OnHeartbeat(lo, hi);
    if (!moved_only) {
      ++fabric_ticks_;
      return;
    }
    if (!mismatch_.empty()) return;
    ++checked_ticks_;
    std::ostringstream out;
    std::size_t marks = 0;
    for (MachineId i = lo; i < hi; ++i) {
      const double estimate = worker(i).estimator.EstimateWait();
      const bool marked =
          congested() && estimate > config().qwait_threshold;
      if (published_wait(i) != estimate) {
        out << "E[W] of " << i << ": published " << published_wait(i)
            << ", estimator " << estimate;
      } else if (crv_marked(i) != marked) {
        out << "CRV mark of " << i;
      }
      if (!out.str().empty()) break;
      if (crv_marked(i)) ++marks;
    }
    if (out.str().empty() && marks != crv_mark_count()) {
      out << "mark count " << crv_mark_count() << " of " << marks;
    }
    if (!out.str().empty()) {
      out << " at tick " << checked_ticks_ << " (t=" << engine().Now()
          << ")";
      mismatch_ = out.str();
    }
  }

 private:
  double partition_from_ = -1;
  bool cut_ = true;
  std::string mismatch_;
  std::uint64_t checked_ticks_ = 0;
  std::uint64_t fabric_ticks_ = 0;
};

struct OracleCase {
  HintCase run;
  /// Report counters that must be positive: the case reached its sites.
  std::vector<std::uint64_t metrics::SchedulerCounters::*> engaged;
  double partition_from = -1;
};

// One run per estimator-moving site: arrivals and completions (every run),
// failures with repair (Clear), parks and wakes under policy all (the wake
// penalty, Clear), elastic commission and retire (Clear), packing's
// effective-server seeding, and a partition on a fabric slower than a
// heartbeat, whose late reports overwrite what the next tick published.
TEST(HeartbeatOracle, PublishedWaitsMatchEstimatorsAfterEveryTick) {
  using C = metrics::SchedulerCounters;
  const OracleCase cases[] = {
      {.run = {.name = "failures with repair", .scheduler = "phoenix",
               .failures = true},
       .engaged = {&C::machine_failures}},
      {.run = {.name = "power all", .scheduler = "phoenix", .power = true,
               .load = 0.5},
       .engaged = {&C::power_parks, &C::power_wakes}},
      {.run = {.name = "elastic churn, power all", .scheduler = "phoenix",
               .power = true, .elastic = true},
       .engaged = {&C::elastic_commissions, &C::elastic_retires_graceful,
                   &C::power_parks}},
      {.run = {.name = "packed gang/malleable, failures",
               .scheduler = "phoenix", .packing = true,
               .gang_malleable = true, .failures = true},
       .engaged = {&C::machine_failures}},
      {.run = {.name = "partition on a slow fabric", .scheduler = "phoenix",
               .one_way = 10.0},
       .engaged = {},
       .partition_from = 100.0},
  };
  for (const OracleCase& c : cases) {
    std::uint64_t checked = 0;
    std::uint64_t fabric = 0;
    const metrics::SimReport report = StepAndCheck(
        c.run,
        [&c](sim::Engine& engine, const cluster::Cluster& cl,
             const SchedulerConfig& cfg) {
          auto s = std::make_unique<WaitOracle>(engine, cl, cfg);
          s->PartitionFrom(c.partition_from);
          return s;
        },
        [&](const SchedulerBase& s, const trace::Trace&,
            const SchedulerConfig&) {
          const auto& oracle = static_cast<const WaitOracle&>(s);
          checked = oracle.checked_ticks();
          fabric = oracle.fabric_ticks();
          return oracle.mismatch();
        });
    SCOPED_TRACE(c.run.name);
    EXPECT_GT(checked, 10u);
    EXPECT_EQ(fabric > 0, c.partition_from >= 0);
    for (const auto counter : c.engaged) {
      EXPECT_GT(report.counters.*counter, 0u);
    }
  }
}

}  // namespace
}  // namespace phoenix::sched
