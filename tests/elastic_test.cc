// Elastic cluster lifecycle tests: the MembershipView state machine,
// eligibility caches and base-fleet admissible counts, the determinism
// contract (an all-active view is RNG-identical to the membership-free
// path, elastic runs are bit-identical across thread budgets), the
// elasticity controller's three policies, and the auditor's lifecycle
// rules. Registered under the "elastic" ctest label
// (scripts/check.sh runs `ctest -L elastic` as a stage).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/builder.h"
#include "cluster/membership.h"
#include "obs/audit.h"
#include "runner/experiment.h"
#include "runner/parallel.h"
#include "trace/generators.h"
#include "util/rng.h"

#include "reference_sampler.h"

namespace phoenix {
namespace {

using cluster::MachineLifecycle;

cluster::Cluster MakeUniverse(std::size_t n, std::uint64_t seed = 7) {
  return cluster::BuildCluster({.num_machines = n, .seed = seed});
}

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { runner::SetExperimentThreads(n); }
  ~ScopedThreads() { runner::SetExperimentThreads(0); }
};

// ---- MembershipView state machine ----------------------------------------

TEST(MembershipView, InitialPartition) {
  const auto cl = MakeUniverse(20);
  const cluster::MembershipView view(cl, 12);
  EXPECT_EQ(view.size(), 20u);
  EXPECT_EQ(view.guaranteed_active(), 12u);
  EXPECT_EQ(view.bindable_count(), 12u);
  EXPECT_EQ(view.in_service_count(), 12u);
  for (cluster::MachineId id = 0; id < 12; ++id) {
    EXPECT_EQ(view.state(id), MachineLifecycle::kActive);
    EXPECT_TRUE(view.Bindable(id));
    EXPECT_TRUE(view.InService(id));
  }
  for (cluster::MachineId id = 12; id < 20; ++id) {
    EXPECT_EQ(view.state(id), MachineLifecycle::kParked);
    EXPECT_FALSE(view.Bindable(id));
    EXPECT_FALSE(view.InService(id));
  }
}

TEST(MembershipView, FullLifecycleRoundTrip) {
  const auto cl = MakeUniverse(8);
  cluster::MembershipView view(cl, 4);
  const std::uint64_t epoch0 = view.epoch();

  view.SetState(5, MachineLifecycle::kProvisioning);
  EXPECT_FALSE(view.Bindable(5));
  EXPECT_FALSE(view.InService(5));
  view.SetState(5, MachineLifecycle::kActive);
  EXPECT_TRUE(view.Bindable(5));
  EXPECT_EQ(view.bindable_count(), 5u);
  view.SetState(5, MachineLifecycle::kDraining);
  EXPECT_FALSE(view.Bindable(5));
  EXPECT_TRUE(view.InService(5));  // draining still holds capacity
  EXPECT_EQ(view.bindable_count(), 4u);
  EXPECT_EQ(view.in_service_count(), 5u);
  view.SetState(5, MachineLifecycle::kRetired);
  EXPECT_FALSE(view.InService(5));
  EXPECT_EQ(view.in_service_count(), 4u);
  // A retired lease can be re-opened.
  view.SetState(5, MachineLifecycle::kProvisioning);
  EXPECT_EQ(view.state(5), MachineLifecycle::kProvisioning);
  EXPECT_EQ(view.epoch(), epoch0 + 5);
}

TEST(MembershipViewDeathTest, IllegalTransitionsAbort) {
  const auto cl = MakeUniverse(8);
  cluster::MembershipView view(cl, 4);
  // parked -> active skips provisioning.
  EXPECT_DEATH(view.SetState(6, MachineLifecycle::kActive), "");
  // parked -> draining is meaningless.
  EXPECT_DEATH(view.SetState(6, MachineLifecycle::kDraining), "");
  // Only an active or draining machine can park (the power return edge);
  // a provisioning or retired one cannot.
  view.SetState(7, MachineLifecycle::kProvisioning);
  EXPECT_DEATH(view.SetState(7, MachineLifecycle::kParked), "");
  view.SetState(7, MachineLifecycle::kActive);
  view.SetState(7, MachineLifecycle::kDraining);
  view.SetState(7, MachineLifecycle::kRetired);
  EXPECT_DEATH(view.SetState(7, MachineLifecycle::kParked), "");
  // The guaranteed base fleet can never drain.
  EXPECT_DEATH(view.SetState(0, MachineLifecycle::kDraining), "");
}

// ---- Eligibility pools under membership ----------------------------------

TEST(MembershipView, PoolsTrackMembershipChanges) {
  const auto cl = MakeUniverse(30);
  cluster::MembershipView view(cl, 15);
  const cluster::ConstraintSet unconstrained;
  EXPECT_EQ(view.CountEligible(unconstrained), 15u);

  // Commission five more machines; the pool grows to match.
  for (cluster::MachineId id = 15; id < 20; ++id) {
    view.SetState(id, MachineLifecycle::kProvisioning);
    // Provisioning is not yet bindable: only the machines committed so far.
    EXPECT_EQ(view.CountEligible(unconstrained), static_cast<std::size_t>(id));
    view.SetState(id, MachineLifecycle::kActive);
  }
  EXPECT_EQ(view.CountEligible(unconstrained), 20u);

  // Drain one: it leaves every eligible pool immediately.
  view.SetState(17, MachineLifecycle::kDraining);
  EXPECT_EQ(view.CountEligible(unconstrained), 19u);
  EXPECT_FALSE(view.EligiblePool(unconstrained).Test(17));

  // A constrained pool is always a subset of the cluster's satisfying pool
  // and of the bindable set.
  cluster::ConstraintSet cs;
  cs.Add({cluster::Attr::kNumCores, cluster::ConstraintOp::kGreater, 1, true});
  const auto& pool = view.EligiblePool(cs);
  for (cluster::MachineId id = 0; id < view.size(); ++id) {
    if (pool.Test(id)) {
      EXPECT_TRUE(view.Bindable(id));
      EXPECT_TRUE(cl.Satisfying(cs).Test(id));
    }
  }
  EXPECT_EQ(view.CountEligible(cs[0]), pool.Count());
}

TEST(MembershipView, AdmissibleCountIgnoresChurn) {
  const auto cl = MakeUniverse(24);
  cluster::MembershipView view(cl, 12);
  cluster::ConstraintSet cs;
  cs.Add({cluster::Attr::kNumCores, cluster::ConstraintOp::kGreater, 1, true});
  const std::size_t admissible = view.CountAdmissible(cs);
  const std::size_t admissible_pred = view.CountAdmissible(cs[0]);
  // Scale the reserve up and down; the admissible count (base fleet only)
  // must not move — that is what makes admission decisions churn-proof.
  for (cluster::MachineId id = 12; id < 18; ++id) {
    view.SetState(id, MachineLifecycle::kProvisioning);
    view.SetState(id, MachineLifecycle::kActive);
  }
  EXPECT_EQ(view.CountAdmissible(cs), admissible);
  for (cluster::MachineId id = 12; id < 18; ++id) {
    view.SetState(id, MachineLifecycle::kDraining);
    view.SetState(id, MachineLifecycle::kRetired);
  }
  EXPECT_EQ(view.CountAdmissible(cs), admissible);
  EXPECT_EQ(view.CountAdmissible(cs[0]), admissible_pred);
}

TEST(MembershipView, AdmissibleCountMatchesBitByBitCount) {
  // The base fleet is the id prefix [0, guaranteed); its size crosses every
  // word boundary case (a view's base fleet is never empty, so n >= 1).
  const std::size_t fleet = 130;
  const auto cl = MakeUniverse(fleet, 13);
  cluster::ConstraintSet cs;
  cs.Add({cluster::Attr::kNumCores, cluster::ConstraintOp::kGreater, 4, true});
  cs.Add({cluster::Attr::kMinMemory, cluster::ConstraintOp::kGreater, 8, true});
  std::size_t fleet_count = 0;
  for (cluster::MachineId id = 0; id < fleet; ++id) {
    if (cl.machine(id).Satisfies(cs)) ++fleet_count;
  }
  ASSERT_GT(fleet_count, 0u);
  ASSERT_LT(fleet_count, fleet);  // a split pool, not all or nothing
  for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, fleet}) {
    const cluster::MembershipView view(cl, n);
    std::size_t want_set = 0;
    std::size_t want_pred = 0;
    for (cluster::MachineId id = 0; id < n; ++id) {
      if (cl.machine(id).Satisfies(cs)) ++want_set;
      if (cl.machine(id).Satisfies(cs[0])) ++want_pred;
    }
    EXPECT_EQ(view.CountAdmissible(cs), want_set) << "n=" << n;
    EXPECT_EQ(view.CountAdmissible(cs[0]), want_pred) << "n=" << n;
  }
}

// ---- Determinism contract -------------------------------------------------

// An all-active view must consume the identical RNG stream as the
// membership-free cluster samplers: same draws, same results, call by call.
TEST(MembershipView, AllActiveSamplingMatchesClusterBitForBit) {
  const auto cl = MakeUniverse(64, 11);
  const cluster::MembershipView view(cl, 64);
  std::vector<cluster::ConstraintSet> sets(2);
  sets[1].Add(
      {cluster::Attr::kNumCores, cluster::ConstraintOp::kGreater, 1, true});
  for (const auto& cs : sets) {
    util::Rng a(123), b(123);
    for (int i = 0; i < 200; ++i) {
      EXPECT_EQ(cl.SampleSatisfying(cs, a), view.SampleEligible(cs, b));
    }
    EXPECT_EQ(cl.SampleSatisfying(cs, 5, a), view.SampleEligible(cs, 5, b));
    EXPECT_EQ(cl.SampleDistinctSatisfying(cs, 7, a),
              view.SampleDistinctEligible(cs, 7, b));
    // The streams stayed in lockstep: the next raw draw agrees.
    EXPECT_EQ(a.Next(), b.Next());
  }
}

// A view with parked, provisioning and draining machines samples its own
// pools, which differ from the cluster's: each draw must match the
// reference sampler's over the cluster pool ANDed with the bindable set.
TEST(MembershipView, PartialFleetSamplingMatchesReferenceOverAndedPool) {
  const auto cl = MakeUniverse(1500, 17);
  cluster::MembershipView view(cl, 1000);  // 1000..1499 start parked
  for (cluster::MachineId id = 1000; id < 1200; ++id) {
    view.SetState(id, MachineLifecycle::kProvisioning);
    if (id < 1150) view.SetState(id, MachineLifecycle::kActive);
  }
  for (cluster::MachineId id = 1100; id < 1120; ++id) {
    view.SetState(id, MachineLifecycle::kDraining);
  }
  std::vector<cluster::ConstraintSet> sets(3);
  sets[1].Add(
      {cluster::Attr::kNumCores, cluster::ConstraintOp::kGreater, 1, true});
  // A sparse pool, so draws reach the rank-select fallback.
  sets[2].Add(
      {cluster::Attr::kNumCores, cluster::ConstraintOp::kGreater, 16, true});
  sets[2].Add(
      {cluster::Attr::kMinMemory, cluster::ConstraintOp::kGreater, 64, true});
  for (const auto& cs : sets) {
    util::Bitset anded = cl.Satisfying(cs).bits();
    for (cluster::MachineId id = 0; id < view.size(); ++id) {
      if (!view.Bindable(id)) anded.Reset(id);
    }
    ASSERT_LT(anded.Count(), cl.Satisfying(cs).Count());
    ASSERT_EQ(view.CountEligible(cs), anded.Count());
    util::Rng a(99), b(99);
    for (int i = 0; i < 400; ++i) {
      const std::size_t want = testing_reference::SampleSetBit(anded, b);
      ASSERT_EQ(view.SampleEligible(cs, a),
                want == SIZE_MAX ? cluster::kInvalidMachine
                                 : static_cast<cluster::MachineId>(want))
          << "draw " << i;
    }
    std::vector<cluster::MachineId> want;
    for (int i = 0; i < 5; ++i) {
      want.push_back(static_cast<cluster::MachineId>(
          testing_reference::SampleSetBit(anded, b)));
    }
    EXPECT_EQ(view.SampleEligible(cs, 5, a), want);
    EXPECT_EQ(a.Next(), b.Next());
  }
}

// Enabling the elastic machinery with empty reserve/transient pools (the
// whole universe is the guaranteed base fleet) must not change a single
// reported number relative to the static-fleet path.
TEST(ElasticRun, DegenerateElasticRunMatchesStaticRun) {
  const auto cl = MakeUniverse(40, 21);
  const auto t = trace::GenerateGoogleTrace(400, 40, 0.8, 21);
  runner::RunOptions stat;
  stat.scheduler = "phoenix";
  runner::RunOptions ela = stat;
  ela.elastic.enabled = true;
  ela.elastic.base_machines = 40;

  const runner::RepeatedRuns a(t, cl, stat, 2);
  const runner::RepeatedRuns b(t, cl, ela, 2);
  ASSERT_EQ(a.reports().size(), b.reports().size());
  for (std::size_t i = 0; i < a.reports().size(); ++i) {
    const auto& ra = a.reports()[i];
    const auto& rb = b.reports()[i];
    EXPECT_EQ(ra.makespan, rb.makespan);
    EXPECT_EQ(ra.counters.probes_sent, rb.counters.probes_sent);
    EXPECT_EQ(ra.counters.tasks_stolen, rb.counters.tasks_stolen);
    EXPECT_EQ(ra.counters.tasks_reordered_crv, rb.counters.tasks_reordered_crv);
    EXPECT_EQ(ra.Utilization(), rb.Utilization());
    const auto pa = ra.QueuingSummary(metrics::ClassFilter::kShort,
                                      metrics::ConstraintFilter::kAll);
    const auto pb = rb.QueuingSummary(metrics::ClassFilter::kShort,
                                      metrics::ConstraintFilter::kAll);
    EXPECT_EQ(pa.p99, pb.p99);
    EXPECT_EQ(rb.counters.elastic_provisions, 0u);
    EXPECT_EQ(rb.counters.elastic_drains, 0u);
  }
}

runner::RunOptions ChurnOptions(const char* scheduler) {
  runner::RunOptions o;
  o.scheduler = scheduler;
  o.elastic.enabled = true;
  o.elastic.base_machines = 32;
  o.elastic.reserve_machines = 16;
  o.elastic.transient_machines = 12;
  o.elastic.transient_target = 12;
  o.elastic.warmup_delay = 20.0;
  o.elastic.drain_grace = 30.0;
  o.elastic.reclaim_rate = 1.0 / 200.0;  // mean lease lifetime ~3.3 min
  o.elastic.reclaim_grace = 10.0;
  return o;
}

// The acceptance run: reclamation-heavy churn under the full invariant
// auditor (the runner aborts on any violation — lost jobs, bindings to
// non-active machines, capacity leaks), with every job completing.
TEST(ElasticRun, ReclamationHeavyChurnIsAuditCleanAndLosesNoJobs) {
  const auto cl = MakeUniverse(60, 33);
  const auto t = trace::GenerateGoogleTrace(500, 32, 0.85, 33);
  auto o = ChurnOptions("phoenix");
  o.obs.audit = true;
  const runner::RepeatedRuns runs(t, cl, o, 2);
  for (const auto& r : runs.reports()) {
    EXPECT_EQ(r.jobs.size(), t.size());  // zero lost jobs
    EXPECT_GT(r.counters.elastic_reclamations, 0u);
    EXPECT_GT(r.counters.elastic_drains, 0u);
    EXPECT_EQ(r.counters.elastic_retires_graceful +
                  r.counters.elastic_retires_forced,
              r.counters.elastic_drains);
    EXPECT_GT(r.active_machine_seconds, 0.0);
  }
}

TEST(ElasticRun, ChurnIsBitIdenticalAcrossThreadCounts) {
  const auto cl = MakeUniverse(60, 29);
  const auto t = trace::GenerateGoogleTrace(400, 32, 0.85, 29);
  const auto o = ChurnOptions("phoenix");

  auto summarize = [&](std::size_t threads) {
    ScopedThreads guard(threads);
    const runner::RepeatedRuns runs(t, cl, o, 3);
    std::vector<double> values;
    for (const auto& r : runs.reports()) {
      values.push_back(r.makespan);
      values.push_back(r.active_machine_seconds);
      values.push_back(static_cast<double>(r.counters.probes_sent));
      values.push_back(static_cast<double>(r.counters.elastic_reclamations));
      values.push_back(
          static_cast<double>(r.counters.elastic_tasks_redispatched));
      values.push_back(r.QueuingSummary(metrics::ClassFilter::kShort,
                                        metrics::ConstraintFilter::kAll)
                           .p99);
    }
    return values;
  };
  const auto serial = summarize(1);
  const auto parallel = summarize(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "summary value " << i;
  }
}

// Different seeds must see different reclamation streams (the per-seed RNG
// is mixed from run seed and elastic seed).
TEST(ElasticRun, ReclamationStreamIsPerSeed) {
  const auto cl = MakeUniverse(60, 17);
  const auto t = trace::GenerateGoogleTrace(400, 32, 0.85, 17);
  const auto o = ChurnOptions("phoenix");
  const runner::RepeatedRuns runs(t, cl, o, 3);
  const auto& rs = runs.reports();
  bool any_difference = false;
  for (std::size_t i = 1; i < rs.size(); ++i) {
    if (rs[i].counters.elastic_reclamations !=
            rs[0].counters.elastic_reclamations ||
        rs[i].makespan != rs[0].makespan) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

// Reactive policy: an overloaded base fleet with a big reserve pool must
// scale up (provision + commission reserve machines).
TEST(ElasticRun, ReactivePolicyScalesUpUnderOverload) {
  const auto cl = MakeUniverse(48, 19);
  const auto t = trace::GenerateGoogleTrace(600, 24, 1.1, 19);
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.elastic.enabled = true;
  o.elastic.base_machines = 24;
  o.elastic.reserve_machines = 24;
  o.elastic.warmup_delay = 10.0;
  o.elastic.target_wait = 1.0;
  const runner::RepeatedRuns runs(t, cl, o, 1);
  const auto& r = runs.reports()[0];
  EXPECT_GT(r.counters.elastic_scale_up_decisions, 0u);
  EXPECT_GT(r.counters.elastic_commissions, 0u);
  EXPECT_EQ(r.counters.elastic_provisions, r.counters.elastic_commissions);
}

// CRV-aware supply shaping engages for Phoenix (and only Phoenix exposes
// the demand signal).
TEST(ElasticRun, CrvShapingSteersPhoenixScaleUps) {
  const auto cl = MakeUniverse(48, 19);
  const auto t = trace::GenerateGoogleTrace(600, 24, 1.1, 19);
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.elastic.enabled = true;
  o.elastic.base_machines = 24;
  o.elastic.reserve_machines = 24;
  o.elastic.warmup_delay = 10.0;
  o.elastic.target_wait = 1.0;
  const runner::RepeatedRuns phoenix_runs(t, cl, o, 1);
  EXPECT_GT(phoenix_runs.reports()[0].counters.elastic_crv_shaped_picks, 0u);

  o.scheduler = "eagle-c";
  const runner::RepeatedRuns eagle_runs(t, cl, o, 1);
  EXPECT_EQ(eagle_runs.reports()[0].counters.elastic_crv_shaped_picks, 0u);
}

// Every comparison scheduler used by bench_ext_elasticity survives churn.
TEST(ElasticRun, BaselineSchedulersSurviveChurnAuditClean) {
  const auto cl = MakeUniverse(60, 41);
  const auto t = trace::GenerateGoogleTrace(300, 32, 0.8, 41);
  for (const char* sched : {"eagle-c", "hawk-c"}) {
    auto o = ChurnOptions(sched);
    o.obs.audit = true;
    const runner::RepeatedRuns runs(t, cl, o, 1);
    EXPECT_EQ(runs.reports()[0].jobs.size(), t.size()) << sched;
  }
}

// ---- Auditor lifecycle rules ----------------------------------------------

obs::Event LifecycleEvent(double time, obs::EventType type,
                          std::uint32_t machine, double value = 0) {
  obs::Event e;
  e.time = time;
  e.type = type;
  e.machine = machine;
  e.value = value;
  return e;
}

TEST(AuditorLifecycle, LegalSequenceIsClean) {
  obs::InvariantAuditor audit;
  audit.OnEvent(LifecycleEvent(0, obs::EventType::kMachinePark, 3));
  audit.OnEvent(LifecycleEvent(1, obs::EventType::kMachineProvision, 3, 30));
  audit.OnEvent(LifecycleEvent(31, obs::EventType::kMachineCommission, 3));
  audit.OnEvent(LifecycleEvent(90, obs::EventType::kMachineDrain, 3));
  audit.OnEvent(LifecycleEvent(120, obs::EventType::kMachineRetire, 3));
  audit.Finish();
  EXPECT_TRUE(audit.ok()) << audit.Summary();
}

TEST(AuditorLifecycle, TaskStartOnProvisioningMachineIsViolation) {
  obs::InvariantAuditor audit;
  audit.OnEvent(LifecycleEvent(0, obs::EventType::kMachinePark, 2));
  audit.OnEvent(LifecycleEvent(1, obs::EventType::kMachineProvision, 2, 30));
  obs::Event start = LifecycleEvent(2, obs::EventType::kTaskStart, 2, 5.0);
  start.job = 0;
  start.task = 0;
  audit.OnEvent(start);
  EXPECT_FALSE(audit.ok());
}

TEST(AuditorLifecycle, TaskStartOnDrainingMachineIsAllowed) {
  // Draining machines may still *finish* work; binding checks are on probe
  // resolution and steals, and a start races legally with the drain edge.
  obs::InvariantAuditor audit;
  audit.OnEvent(LifecycleEvent(0, obs::EventType::kMachineDrain, 1));
  obs::Event start = LifecycleEvent(1, obs::EventType::kTaskStart, 1, 5.0);
  start.job = 0;
  start.task = 0;
  audit.OnEvent(start);
  EXPECT_TRUE(audit.ok()) << audit.Summary();
}

TEST(AuditorLifecycle, PreemptOnDrainingMachineIsViolation) {
  // A draining machine's slot work belongs to the drain/retire sweep; a
  // preemption there would put the victim on two recovery paths (requeue +
  // sweep) — the conservation rule covers the machine lifecycle too.
  obs::InvariantAuditor audit;
  audit.OnEvent(LifecycleEvent(0, obs::EventType::kMachineDrain, 1));
  obs::Event issue = LifecycleEvent(1, obs::EventType::kPreemptIssue, 1, 0.5);
  issue.job = 0;
  issue.task = 0;
  audit.OnEvent(issue);
  EXPECT_FALSE(audit.ok());
}

TEST(AuditorLifecycle, PreemptOnActiveMachineIsClean) {
  obs::InvariantAuditor audit;
  obs::Event issue = LifecycleEvent(1, obs::EventType::kPreemptIssue, 1, 0.5);
  issue.job = 0;
  issue.task = 0;
  audit.OnEvent(issue);
  obs::Event requeue = LifecycleEvent(1, obs::EventType::kPreemptRequeue, 1);
  requeue.job = 0;
  requeue.task = 0;
  audit.OnEvent(requeue);
  audit.Finish();
  EXPECT_TRUE(audit.ok()) << audit.Summary();
}

TEST(AuditorLifecycle, ProbeResolveOnDrainingMachineIsViolation) {
  obs::InvariantAuditor audit;
  audit.OnEvent(LifecycleEvent(0, obs::EventType::kMachineDrain, 1));
  obs::Event resolve = LifecycleEvent(1, obs::EventType::kProbeResolve, 1);
  resolve.job = 0;
  resolve.task = 0;
  audit.OnEvent(resolve);
  EXPECT_FALSE(audit.ok());
}

TEST(AuditorLifecycle, IllegalTransitionIsViolation) {
  obs::InvariantAuditor audit;
  audit.OnEvent(LifecycleEvent(0, obs::EventType::kMachinePark, 4));
  // parked -> commission skips provisioning.
  audit.OnEvent(LifecycleEvent(1, obs::EventType::kMachineCommission, 4));
  EXPECT_FALSE(audit.ok());
}

TEST(AuditorLifecycle, MachineLeftDrainingIsCapacityLeak) {
  obs::InvariantAuditor audit;
  audit.OnEvent(LifecycleEvent(0, obs::EventType::kMachineDrain, 6));
  EXPECT_TRUE(audit.ok());
  audit.Finish();
  EXPECT_FALSE(audit.ok());
}

TEST(AuditorLifecycle, OutOfServiceWorkerHoldingWorkIsViolation) {
  obs::InvariantAuditor audit;
  audit.CheckWorker(/*now=*/10, /*machine=*/2, /*busy=*/true,
                    /*failed=*/false, /*has_live_slot_event=*/true,
                    /*queue_len=*/0, /*est_queued_work=*/0,
                    /*final_state=*/false, /*out_of_service=*/true);
  EXPECT_FALSE(audit.ok());
}

}  // namespace
}  // namespace phoenix
