// Tests for the multi-tenant SLO scheduling subsystem (src/tenancy): the
// pure admission lattice and preemption policy, TenantRegistry accounting,
// and the end-to-end scheduler wiring — preemption kill-and-requeue with
// audited conservation, the Slack_threshold starvation guard, quota
// rejects, SLO tracking, priority promotion, and determinism across the
// experiment thread budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cluster/builder.h"
#include "cluster/membership.h"
#include "metrics/fairness.h"
#include "obs/audit.h"
#include "runner/experiment.h"
#include "runner/parallel.h"
#include "runner/registry.h"
#include "tenancy/admission.h"
#include "tenancy/config.h"
#include "tenancy/preemption.h"
#include "trace/generators.h"

namespace phoenix {
namespace {

using tenancy::AdmissionInput;
using tenancy::DecideAdmission;
using tenancy::PriorityClass;
using tenancy::Verdict;

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { runner::SetExperimentThreads(n); }
  ~ScopedThreads() { runner::SetExperimentThreads(0); }
};

// ---------------------------------------------------------------------------
// Admission lattice (pure).

TEST(TenancyAdmission, AdmitsWithinBudgetAndSlo) {
  AdmissionInput in;
  in.priority = PriorityClass::kBatch;
  in.job_work = 100;
  in.committed = 200;
  in.budget = 1000;
  in.slo_target = 60;
  in.predicted_wait = 1;
  const auto d = DecideAdmission(in);
  EXPECT_EQ(d.verdict, Verdict::kAdmit);
  EXPECT_EQ(d.priority, PriorityClass::kBatch);
  EXPECT_TRUE(d.charge_quota);
  EXPECT_FALSE(d.strip_slo);
  EXPECT_FALSE(d.relax_constraint);
  EXPECT_FALSE(d.slo_at_risk);
}

TEST(TenancyAdmission, QuotaExhaustedRejectsAsUnchargedBestEffort) {
  AdmissionInput in;
  in.priority = PriorityClass::kProd;
  in.job_work = 100;
  in.committed = 950;
  in.budget = 1000;
  in.slo_target = 60;
  const auto d = DecideAdmission(in);
  EXPECT_EQ(d.verdict, Verdict::kReject);
  EXPECT_EQ(d.priority, PriorityClass::kBestEffort);
  EXPECT_TRUE(d.strip_slo);
  EXPECT_FALSE(d.charge_quota);
}

TEST(TenancyAdmission, ZeroBudgetMeansUnlimited) {
  AdmissionInput in;
  in.job_work = 1e12;
  in.committed = 1e12;
  in.budget = 0;  // no quota_share configured
  EXPECT_EQ(DecideAdmission(in).verdict, Verdict::kAdmit);
}

TEST(TenancyAdmission, InfeasibleSloKeepsProdAtRisk) {
  AdmissionInput in;
  in.priority = PriorityClass::kProd;
  in.short_class = true;
  in.slo_target = 0.5;
  in.predicted_wait = 2.0;
  const auto d = DecideAdmission(in);
  EXPECT_EQ(d.verdict, Verdict::kAdmit);
  EXPECT_EQ(d.priority, PriorityClass::kProd);
  EXPECT_TRUE(d.slo_at_risk);
  EXPECT_FALSE(d.strip_slo);
}

TEST(TenancyAdmission, InfeasibleSloDowngradesBatchAndStripsSlo) {
  AdmissionInput in;
  in.priority = PriorityClass::kBatch;
  in.short_class = true;
  in.constrained = true;
  in.slo_target = 0.5;
  in.predicted_wait = 2.0;
  const auto d = DecideAdmission(in);
  EXPECT_EQ(d.verdict, Verdict::kDowngrade);
  EXPECT_EQ(d.priority, PriorityClass::kBestEffort);
  EXPECT_TRUE(d.strip_slo);
  EXPECT_TRUE(d.relax_constraint);

  // Long jobs are not SLO-tracked, so the rule must not fire for them.
  in.short_class = false;
  EXPECT_EQ(DecideAdmission(in).verdict, Verdict::kAdmit);
}

TEST(TenancyAdmission, CrvShareBreachKeepsClassTradesConstraint) {
  AdmissionInput in;
  in.priority = PriorityClass::kBatch;
  in.constrained = true;
  in.constrained_share = 0.8;
  in.crv_share_limit = 0.6;
  const auto d = DecideAdmission(in);
  EXPECT_EQ(d.verdict, Verdict::kDowngrade);
  EXPECT_EQ(d.priority, PriorityClass::kBatch);  // class kept
  EXPECT_TRUE(d.relax_constraint);
  EXPECT_FALSE(d.strip_slo);

  // Unconstrained jobs cannot be hogging constrained supply.
  in.constrained = false;
  EXPECT_EQ(DecideAdmission(in).verdict, Verdict::kAdmit);
}

// ---------------------------------------------------------------------------
// Preemption policy (pure).

TEST(TenancyPreemptionPolicy, OnlyProdOverBestEffortIsEligible) {
  const tenancy::PreemptionPolicy on(true, 3);
  const tenancy::PreemptionPolicy off(false, 3);
  using V = tenancy::PreemptVerdict;
  EXPECT_EQ(on.Judge(PriorityClass::kProd, PriorityClass::kBestEffort, false,
                     0),
            V::kPreempt);
  EXPECT_EQ(on.Judge(PriorityClass::kBatch, PriorityClass::kBestEffort, false,
                     0),
            V::kIneligible);
  EXPECT_EQ(on.Judge(PriorityClass::kProd, PriorityClass::kBatch, false, 0),
            V::kIneligible);
  EXPECT_EQ(on.Judge(PriorityClass::kProd, PriorityClass::kProd, false, 0),
            V::kIneligible);
  EXPECT_EQ(off.Judge(PriorityClass::kProd, PriorityClass::kBestEffort, false,
                      0),
            V::kIneligible);
}

TEST(TenancyPreemptionPolicy, SlackGuardAndCapBlock) {
  const tenancy::PreemptionPolicy p(true, 3);
  using V = tenancy::PreemptVerdict;
  EXPECT_EQ(p.Judge(PriorityClass::kProd, PriorityClass::kBestEffort,
                    /*victim_bypass_exhausted=*/true, 0),
            V::kGuardedBySlack);
  EXPECT_EQ(p.Judge(PriorityClass::kProd, PriorityClass::kBestEffort, false,
                    /*victim_preempt_count=*/3),
            V::kPreemptCapReached);
  EXPECT_EQ(p.Judge(PriorityClass::kProd, PriorityClass::kBestEffort, false,
                    2),
            V::kPreempt);
}

// ---------------------------------------------------------------------------
// TenantRegistry accounting.

TEST(TenantRegistry, BudgetScalesWithFleetAndWindow) {
  tenancy::TenantRegistry reg(
      {{"a", PriorityClass::kProd, /*quota_share=*/0.5, 0.0, 0.0},
       {"b", PriorityClass::kBatch, /*quota_share=*/0.0, 0.0, 0.0}});
  EXPECT_DOUBLE_EQ(reg.Budget(0, 100, 120.0), 0.5 * 100 * 120.0);
  EXPECT_DOUBLE_EQ(reg.Budget(1, 100, 120.0), 0.0);  // unlimited
  EXPECT_TRUE(reg.enabled());
  EXPECT_TRUE(reg.Known(0));
  EXPECT_FALSE(reg.Known(tenancy::kNoTenant));
  EXPECT_FALSE(reg.Known(2));
}

TEST(TenantRegistry, ChargeReleaseAndPeakFraction) {
  tenancy::TenantRegistry reg({{"a", PriorityClass::kProd, 0.5, 0.0, 0.0}});
  EXPECT_DOUBLE_EQ(reg.Charge(0, 3000, 6000), 0.5);
  EXPECT_DOUBLE_EQ(reg.Charge(0, 1500, 6000), 0.75);
  EXPECT_DOUBLE_EQ(reg.state(0).peak_quota_fraction, 0.75);
  reg.Release(0, 3000);
  EXPECT_DOUBLE_EQ(reg.state(0).committed, 1500);
  // Peak is a high-water mark; releases do not lower it.
  EXPECT_DOUBLE_EQ(reg.state(0).peak_quota_fraction, 0.75);
  // Unlimited budget charges commit work but report fraction 0.
  EXPECT_DOUBLE_EQ(reg.Charge(0, 500, 0), 0.0);
}

TEST(TenantRegistry, ConstrainedShareAccounting) {
  tenancy::TenantRegistry reg({{"a", PriorityClass::kBatch, 0, 0, 0},
                               {"b", PriorityClass::kBatch, 0, 0, 0}});
  EXPECT_DOUBLE_EQ(reg.ConstrainedShare(0), 0.0);  // nothing queued
  reg.AdjustConstrainedQueued(0, 10);
  EXPECT_DOUBLE_EQ(reg.ConstrainedShare(0), 1.0);
  reg.AdjustConstrainedQueued(1, 30);
  EXPECT_DOUBLE_EQ(reg.ConstrainedShare(0), 0.25);
  reg.AdjustConstrainedQueued(0, -10);
  EXPECT_DOUBLE_EQ(reg.ConstrainedShare(0), 0.0);
  EXPECT_DOUBLE_EQ(reg.total_queued_constrained(), 30.0);
  // Float-noise underflow clamps at zero instead of going negative.
  reg.AdjustConstrainedQueued(1, -1e9);
  EXPECT_GE(reg.state(1).queued_constrained, 0.0);
  EXPECT_GE(reg.total_queued_constrained(), 0.0);
}

// ---------------------------------------------------------------------------
// End-to-end scheduler wiring.

tenancy::TenancyConfig DuelTenants() {
  // Tenant 0 = prod issuer, tenant 1 = best-effort victim; no quotas or
  // SLOs so admission stays out of the way.
  tenancy::TenancyConfig tc;
  tc.tenants.push_back({"prod", PriorityClass::kProd, 0.0, 0.0, 0.0});
  tc.tenants.push_back({"scav", PriorityClass::kBestEffort, 0.0, 0.0, 0.0});
  return tc;
}

// One worker: a 200 s best-effort task is running when a 1 s prod job
// arrives at t = 5, so every prod probe lands on a busy worker and the
// preemption decision is exercised deterministically.
trace::Trace PreemptDuelTrace() {
  trace::Job be;
  be.id = 0;
  be.submit_time = 0;
  be.task_durations = {200.0};
  be.tenant = 1;
  be.short_job = false;
  trace::Job prod;
  prod.id = 1;
  prod.submit_time = 5.0;
  prod.task_durations = {1.0};
  prod.tenant = 0;
  trace::Trace t("preempt-duel", {be, prod});
  t.set_short_cutoff(10.0);
  return t;
}

// The duel under packing: both jobs claim the whole machine (trace-supplied
// cpu request 1.0 of the largest machine), so the prod task cannot start
// beside the running best-effort task.
trace::Trace PackedDuelTrace() {
  trace::Trace t = PreemptDuelTrace();
  std::vector<trace::Job> jobs = t.jobs();
  for (trace::Job& j : jobs) j.req_cpu = 1.0;
  trace::Trace packed("packed-preempt-duel", jobs);
  packed.set_short_cutoff(10.0);
  return packed;
}

metrics::SimReport RunDuel(runner::RunOptions o,
                           const trace::Trace& t = PreemptDuelTrace()) {
  const auto cl = cluster::BuildCluster({.num_machines = 1, .seed = 3});
  o.scheduler = "phoenix";
  o.config.seed = 3;
  o.obs.audit = true;  // conservation + payload rules checked online
  return runner::RunSimulation(t, cl, o);
}

const metrics::JobOutcome& JobById(const metrics::SimReport& r,
                                   trace::JobId id) {
  for (const auto& j : r.jobs) {
    if (j.id == id) return j;
  }
  ADD_FAILURE() << "job " << id << " missing from report";
  return r.jobs.front();
}

TEST(Tenancy, ProdPreemptsRunningBestEffortTask) {
  runner::RunOptions o;
  o.config.tenancy = DuelTenants();
  const auto report = RunDuel(o);
  report.CheckInvariants();

  const auto& c = report.counters;
  EXPECT_EQ(c.preemptions_issued, 1u);
  EXPECT_EQ(c.preemption_requeues, 1u);
  EXPECT_EQ(c.preemptions_blocked_guard, 0u);
  EXPECT_EQ(c.preemptions_blocked_cap, 0u);
  // Modeled restart cost is re-paid once per requeue.
  EXPECT_DOUBLE_EQ(c.preemption_restart_seconds,
                   o.config.tenancy.preemption_restart_cost);
  // The victim had run ~5 s when the prod probe arrived; that service is
  // lost and re-executed.
  EXPECT_NEAR(c.preemption_lost_seconds, 5.0, 0.05);

  // Prod jumps the 200 s task: its one task waits well under a second.
  EXPECT_LT(JobById(report, 1).max_task_wait, 1.0);
  // The victim restarts from scratch (200 s + restart cost after t = 5).
  EXPECT_GT(JobById(report, 0).completion, 205.0);
  EXPECT_EQ(JobById(report, 0).priority, 2);
  EXPECT_EQ(JobById(report, 1).priority, 0);

  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].preemptions_issued, 1u);
  EXPECT_EQ(report.tenants[1].preemptions_suffered, 1u);
}

TEST(Tenancy, StarvationGuardVetoesPreemptionOfBypassExhaustedTask) {
  // slack_threshold = 0 marks every dispatched task bypass-exhausted, so
  // the same duel must be blocked by the guard instead of preempting.
  runner::RunOptions o;
  o.config.tenancy = DuelTenants();
  o.config.slack_threshold = 0;
  const auto report = RunDuel(o);
  report.CheckInvariants();
  EXPECT_EQ(report.counters.preemptions_issued, 0u);
  EXPECT_EQ(report.counters.preemption_requeues, 0u);
  EXPECT_GE(report.counters.preemptions_blocked_guard, 1u);
  // Blocked preemption means the prod job waits out the 200 s task.
  EXPECT_GT(JobById(report, 1).max_task_wait, 100.0);
}

TEST(Tenancy, PreemptionCapMakesTaskImmune) {
  runner::RunOptions o;
  o.config.tenancy = DuelTenants();
  o.config.tenancy.max_preemptions_per_task = 0;
  const auto report = RunDuel(o);
  report.CheckInvariants();
  EXPECT_EQ(report.counters.preemptions_issued, 0u);
  EXPECT_GE(report.counters.preemptions_blocked_cap, 1u);
}

TEST(Tenancy, PreemptionDisabledByConfig) {
  runner::RunOptions o;
  o.config.tenancy = DuelTenants();
  o.config.tenancy.preemption = false;
  const auto report = RunDuel(o);
  report.CheckInvariants();
  EXPECT_EQ(report.counters.preemptions_issued, 0u);
  EXPECT_EQ(report.counters.preemption_requeues, 0u);
  EXPECT_EQ(report.counters.preemptions_blocked_guard, 0u);
  EXPECT_EQ(report.counters.preemptions_blocked_cap, 0u);
  EXPECT_DOUBLE_EQ(report.counters.preemption_restart_seconds, 0.0);
}

// The blocked-preemption counters mean the same thing in both worker
// models: a packed prod arrival that finds its only victim guarded or
// capped counts the block instead of passing over it silently.
TEST(Tenancy, PackedPreemptionCountsGuardAndCapBlocks) {
  runner::RunOptions o;
  o.config.tenancy = DuelTenants();
  o.config.packing.enabled = true;

  runner::RunOptions capped = o;
  capped.config.tenancy.max_preemptions_per_task = 0;
  const auto cap = RunDuel(capped, PackedDuelTrace());
  cap.CheckInvariants();
  EXPECT_EQ(cap.counters.preemptions_issued, 0u);
  EXPECT_GE(cap.counters.preemptions_blocked_cap, 1u);

  runner::RunOptions guarded = o;
  guarded.config.slack_threshold = 0;
  const auto guard = RunDuel(guarded, PackedDuelTrace());
  guard.CheckInvariants();
  EXPECT_EQ(guard.counters.preemptions_issued, 0u);
  EXPECT_GE(guard.counters.preemptions_blocked_guard, 1u);
  EXPECT_GT(JobById(guard, 1).max_task_wait, 100.0);
}

// A victim is judged by its own run, not by whatever the worker popped
// last. One packed machine fits two tasks (cpu request 0.5 each) and the
// cap is one preemption per task:
//   t=0  best-effort A starts      t=1  batch B fills the machine
//   t=5  prod P1 preempts A        t~15 P1 ends, A restarts (preempted once)
//   t=16 batch C queues, takes B's room when B ends at t~21
//   t=25 prod P2 arrives: A is capped, C is batch, so nothing is preempted.
// Judging A by C's state (never preempted) would kill A a second time.
TEST(Tenancy, PackedVictimIsJudgedByItsOwnRun) {
  const auto job = [](trace::JobId id, double submit, double duration,
                      std::uint16_t tenant) {
    trace::Job j;
    j.id = id;
    j.submit_time = submit;
    j.task_durations = {duration};
    j.tenant = tenant;
    j.short_job = false;
    j.req_cpu = 0.5;
    return j;
  };
  // Tenants: 0 prod, 1 best-effort, 2 batch.
  trace::Trace t("packed-cap", {job(0, 0.0, 100.0, 1), job(1, 1.0, 20.0, 2),
                                job(2, 5.0, 10.0, 0), job(3, 16.0, 50.0, 2),
                                job(4, 25.0, 10.0, 0)});
  t.set_short_cutoff(10.0);
  const auto cl = cluster::BuildCluster({.num_machines = 1, .seed = 3});
  for (const bool packing : {false, true}) {
    runner::RunOptions o;
    o.scheduler = "central-c";
    o.config.seed = 3;
    o.config.tenancy = DuelTenants();
    o.config.tenancy.tenants.push_back(
        {"batch", PriorityClass::kBatch, 0.0, 0.0, 0.0});
    o.config.tenancy.max_preemptions_per_task = 1;
    o.config.packing.enabled = packing;
    o.obs.audit = true;
    const auto report = runner::RunSimulation(t, cl, o);
    report.CheckInvariants();
    ASSERT_EQ(report.tenants.size(), 3u);
    EXPECT_EQ(report.tenants[1].preemptions_suffered, 1u)
        << "packing=" << packing;
    EXPECT_EQ(report.counters.preemptions_issued, 1u) << "packing=" << packing;
    if (packing) {
      EXPECT_GE(report.counters.preemptions_blocked_cap, 1u);
    }
  }
}

TEST(Tenancy, QueuedProdWorkIsPromotedOverBestEffort) {
  // One worker, preemption off: a prod task arriving behind two queued
  // best-effort tasks must be promoted to the head when the worker frees.
  trace::Job be;
  be.id = 0;
  be.submit_time = 0;
  be.task_durations = {20.0, 20.0, 20.0};
  be.tenant = 1;
  be.short_job = false;
  trace::Job prod;
  prod.id = 1;
  prod.submit_time = 1.0;
  prod.task_durations = {20.0};
  prod.tenant = 0;
  prod.short_job = false;
  trace::Trace t("promotion", {be, prod});
  t.set_short_cutoff(10.0);

  const auto cl = cluster::BuildCluster({.num_machines = 1, .seed = 5});
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.config.seed = 5;
  o.config.tenancy = DuelTenants();
  o.config.tenancy.preemption = false;
  o.obs.audit = true;
  const auto report = runner::RunSimulation(t, cl, o);
  report.CheckInvariants();
  EXPECT_GE(report.counters.tenant_priority_promotions, 1u);
  EXPECT_LT(JobById(report, 1).completion, JobById(report, 0).completion);
}

TEST(Tenancy, ZeroTenantRunHasNoTenancyFootprint) {
  const auto cl = cluster::BuildCluster({.num_machines = 24, .seed = 11});
  const auto t = trace::GenerateGoogleTrace(400, 24, 0.7, 11);
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.config.seed = 11;
  o.obs.audit = true;
  const auto report = runner::RunSimulation(t, cl, o);
  report.CheckInvariants();
  const auto& c = report.counters;
  EXPECT_EQ(c.tenant_admits, 0u);
  EXPECT_EQ(c.tenant_downgrades, 0u);
  EXPECT_EQ(c.tenant_rejects, 0u);
  EXPECT_EQ(c.tenant_slo_jobs, 0u);
  EXPECT_EQ(c.tenant_priority_promotions, 0u);
  EXPECT_EQ(c.preemptions_issued + c.preemption_requeues, 0u);
  EXPECT_EQ(c.preemptions_blocked_guard + c.preemptions_blocked_cap, 0u);
  EXPECT_TRUE(report.tenants.empty());
  EXPECT_DOUBLE_EQ(report.tenant_fairness_jain, 1.0);
  for (const auto& j : report.jobs) {
    EXPECT_EQ(j.tenant, 0xffff);
    EXPECT_EQ(j.priority, 1);  // default batch rank, untouched
  }
}

// Preemption/drain duel on one worker: the best-effort victim is preempted
// (kill + requeue on the same machine), the machine then drains with the
// victim's requeued bound task still in its queue, and a forced retire
// sweeps the slot and queue mid-grace. The victim must be re-covered by
// exactly one path — the retire sweep — and run exactly once; a second
// recovery (preemption requeue racing the sweep) would double-run the task
// and trip task conservation, the auditor's preemption-conservation set, or
// its draining-machine preemption rule.
TEST(Tenancy, PreemptDrainDuelRecoversVictimExactlyOnce) {
  const auto cl = cluster::BuildCluster({.num_machines = 2, .seed = 71});
  sim::Engine engine;
  sched::SchedulerConfig cfg;
  cfg.seed = 71;
  cfg.tenancy.tenants.push_back(
      {"prod", PriorityClass::kProd, 0.0, 0.0, 0.0});
  cfg.tenancy.tenants.push_back(
      {"scav", PriorityClass::kBestEffort, 0.0, 0.0, 0.0});
  const auto sched = runner::MakeScheduler("phoenix", engine, cl, cfg);
  // Machine 0 is the guaranteed base (never drainable); the duel plays out
  // on reserve machine 1, commissioned below.
  cluster::MembershipView view(cl, 1);
  sched->SetMembership(&view);
  obs::InvariantAuditor audit;
  sched->AttachAuditor(&audit);

  // Three single-task long jobs (cutoff 10): all take the centralized
  // bound-task plane. The blocker occupies machine 0 for the whole run, so
  // least-loaded placement deterministically sends the victim — and then
  // the preempting prod bind — to machine 1.
  trace::Job blocker;
  blocker.id = 0;
  blocker.submit_time = 0;
  blocker.task_durations = {1000.0};
  blocker.tenant = 0;
  blocker.short_job = false;
  trace::Job victim;
  victim.id = 1;
  victim.submit_time = 2.0;
  victim.task_durations = {50.0};
  victim.tenant = 1;
  victim.short_job = false;
  trace::Job prod;
  prod.id = 2;
  prod.submit_time = 5.0;
  prod.task_durations = {50.0};
  prod.tenant = 0;
  prod.short_job = false;
  trace::Trace t("preempt-drain-duel", {blocker, victim, prod});
  t.set_short_cutoff(10.0);
  sched->SubmitTrace(t);

  // t=1: reserve machine 1 joins. t=2: victim binds there (machine 0 holds
  // the blocker). t~5: the prod bind preempts the running victim — kill +
  // requeue on machine 1, behind the promoted prod entry. t=6: machine 1
  // drains with the victim's bound task still queued. t=8: forced retire
  // kills the running prod task and sweeps the queue, including the
  // requeued victim; everything re-covers onto machine 0 exactly once.
  engine.ScheduleAt(0.2, [&] { sched->ProvisionMachine(1, 0.8); });
  engine.ScheduleAt(1.0, [&] { sched->CommissionMachine(1); });
  engine.ScheduleAt(6.0, [&] { sched->DrainMachine(1); });
  engine.ScheduleAt(8.0, [&] { EXPECT_TRUE(sched->RetireMachine(1, true)); });
  engine.Run();

  EXPECT_TRUE(sched->AllJobsDone());
  sched->FinalAudit();
  EXPECT_TRUE(audit.ok()) << audit.Summary();
  const auto report = sched->BuildReport();
  report.CheckInvariants();
  EXPECT_EQ(report.counters.preemptions_issued, 1u);
  EXPECT_EQ(report.counters.preemption_requeues, 1u);
  EXPECT_EQ(report.counters.preemptions_blocked_lifecycle, 0u);
  // The sweep recovered exactly the running prod task plus the queued
  // victim — each once.
  EXPECT_EQ(report.counters.elastic_tasks_redispatched, 2u);
}

tenancy::TenancyConfig ThreeTenants(double prod_slo) {
  tenancy::TenancyConfig tc;
  tc.tenants.push_back(
      {"prod", PriorityClass::kProd, 0.5, 0.0, prod_slo});
  tc.tenants.push_back({"batch", PriorityClass::kBatch, 0.4, 0.6, 0.0});
  tc.tenants.push_back(
      {"scav", PriorityClass::kBestEffort, 0.0, 0.0, 0.0});
  return tc;
}

trace::Trace TenantedGoogleTrace(std::size_t jobs, std::size_t workers,
                                 double load, std::uint64_t seed) {
  auto gen = trace::ProfileByName("google");
  gen.num_jobs = jobs;
  gen.num_workers = workers;
  gen.target_load = load;
  gen.seed = seed;
  gen.tenant_weights = {1.0, 1.0, 1.0};
  return trace::GenerateTrace("google-tenanted", gen);
}

class TenancyChaosTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TenancyChaosTest, PreemptionConservationHoldsUnderChaos) {
  // Lossy fabric + machine churn + preemption, with the invariant auditor
  // online: every kPreemptIssue must pair with its kPreemptRequeue, every
  // job completes, and quota charges stay in range — or the run aborts.
  const auto cl = cluster::BuildCluster({.num_machines = 40, .seed = 21});
  const auto t = TenantedGoogleTrace(600, 40, 0.75, 21);
  // "<scheduler>+packing" runs the same mix on the packed worker model.
  const std::string param = GetParam();
  const std::size_t plus = param.find('+');
  runner::RunOptions o;
  o.scheduler = param.substr(0, plus);
  o.config.packing.enabled = plus != std::string::npos;
  o.config.seed = 21;
  o.config.tenancy = ThreeTenants(/*prod_slo=*/60.0);
  o.config.machine_mtbf = 1500;
  o.config.machine_mttr = 150;
  o.config.net.drop_rate = 0.03;
  o.config.net.duplicate_rate = 0.02;
  o.obs.audit = true;
  const auto report = runner::RunSimulation(t, cl, o);
  report.CheckInvariants();
  EXPECT_EQ(report.jobs.size(), t.size());
  EXPECT_GT(report.counters.machine_failures, 0u);
  EXPECT_EQ(report.counters.preemptions_issued,
            report.counters.preemption_requeues);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, TenancyChaosTest,
                         ::testing::Values("phoenix", "eagle-c",
                                           "phoenix+packing"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n)
                             if (ch == '-' || ch == '+') ch = '_';
                           return n;
                         });

TEST(Tenancy, UsageAccountsForEveryBusySecond) {
  // With every job tenanted and no failures, executed machine-seconds
  // split exactly into per-tenant usage plus the service lost to
  // preemption kills (lost work is re-run and re-attributed).
  const auto cl = cluster::BuildCluster({.num_machines = 24, .seed = 31});
  const auto t = TenantedGoogleTrace(400, 24, 0.8, 31);
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.config.seed = 31;
  o.config.tenancy = ThreeTenants(60.0);
  o.obs.audit = true;
  const auto report = runner::RunSimulation(t, cl, o);
  report.CheckInvariants();
  ASSERT_EQ(report.tenants.size(), 3u);
  double usage = 0;
  for (const auto& tn : report.tenants) usage += tn.usage_seconds;
  EXPECT_NEAR(usage + report.counters.preemption_lost_seconds,
              report.total_busy_time,
              1e-6 * std::max(1.0, report.total_busy_time));
  EXPECT_GT(report.tenant_fairness_jain, 0.0);
  EXPECT_LE(report.tenant_fairness_jain, 1.0 + 1e-9);
  EXPECT_DOUBLE_EQ(report.tenant_fairness_jain,
                   metrics::TenantUsageJain(report));
  // Spec fields survive into the per-tenant slice.
  EXPECT_EQ(report.tenants[0].name, "prod");
  EXPECT_EQ(report.tenants[0].priority, 0);
  EXPECT_EQ(report.tenants[2].priority, 2);
}

TEST(Tenancy, LooseSloIsAttainedAndTracked) {
  const auto cl = cluster::BuildCluster({.num_machines = 16, .seed = 41});
  auto gen = trace::ProfileByName("google");
  gen.num_jobs = 300;
  gen.num_workers = 16;
  gen.target_load = 0.6;
  gen.seed = 41;
  gen.tenant_weights = {1.0};
  const auto t = trace::GenerateTrace("one-tenant", gen);
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.config.seed = 41;
  o.config.tenancy.tenants.push_back(
      {"prod", PriorityClass::kProd, 0.0, 0.0, /*slo_target=*/1e6});
  const auto report = runner::RunSimulation(t, cl, o);
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_GT(report.tenants[0].slo_jobs, 0u);
  EXPECT_EQ(report.tenants[0].slo_attained, report.tenants[0].slo_jobs);
  EXPECT_DOUBLE_EQ(report.tenants[0].SloAttainment(), 1.0);
  EXPECT_EQ(report.counters.tenant_slo_jobs, report.tenants[0].slo_jobs);
  EXPECT_EQ(report.counters.tenant_slo_attained,
            report.tenants[0].slo_attained);
}

TEST(Tenancy, ImpossibleSloDowngradesBatchJobs) {
  // An SLO below the placement round trip is infeasible from t = 0, so
  // every short batch job is downgraded to best-effort with its SLO
  // stripped — none may be counted as an SLO miss.
  const auto cl = cluster::BuildCluster({.num_machines = 16, .seed = 43});
  auto gen = trace::ProfileByName("google");
  gen.num_jobs = 300;
  gen.num_workers = 16;
  gen.target_load = 0.6;
  gen.seed = 43;
  gen.tenant_weights = {1.0};
  const auto t = trace::GenerateTrace("one-tenant", gen);
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.config.seed = 43;
  o.config.tenancy.tenants.push_back(
      {"batch", PriorityClass::kBatch, 0.0, 0.0, /*slo_target=*/1e-6});
  const auto report = runner::RunSimulation(t, cl, o);
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_GT(report.counters.tenant_downgrades, 0u);
  EXPECT_EQ(report.tenants[0].slo_jobs, 0u);
  for (const auto& j : report.jobs) {
    if (j.short_class) {
      EXPECT_EQ(j.priority, 2);  // Lowered(kBatch)
    }
  }
}

TEST(Tenancy, QuotaRejectStillRunsAsUnchargedBestEffort) {
  // A budget below any single job's work rejects everything; the jobs must
  // still run (as scavenger work), never abort, and never charge quota.
  const auto cl = cluster::BuildCluster({.num_machines = 16, .seed = 47});
  auto gen = trace::ProfileByName("google");
  gen.num_jobs = 200;
  gen.num_workers = 16;
  gen.target_load = 0.6;
  gen.seed = 47;
  gen.tenant_weights = {1.0};
  const auto t = trace::GenerateTrace("one-tenant", gen);
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.config.seed = 47;
  o.config.tenancy.tenants.push_back(
      {"prod", PriorityClass::kProd, /*quota_share=*/1e-9, 0.0, 0.0});
  o.obs.audit = true;
  const auto report = runner::RunSimulation(t, cl, o);
  report.CheckInvariants();
  EXPECT_EQ(report.jobs.size(), t.size());
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].rejects, static_cast<std::uint64_t>(t.size()));
  EXPECT_EQ(report.counters.tenant_admits, 0u);
  EXPECT_DOUBLE_EQ(report.tenants[0].peak_quota_fraction, 0.0);
  EXPECT_GT(report.tenants[0].usage_seconds, 0.0);
  for (const auto& j : report.jobs) EXPECT_EQ(j.priority, 2);
}

TEST(Tenancy, TenantTaggingDoesNotPerturbTheTrace) {
  auto gen = trace::ProfileByName("google");
  gen.num_jobs = 400;
  gen.num_workers = 20;
  gen.target_load = 0.7;
  gen.seed = 9;
  const auto plain = trace::GenerateTrace("plain", gen);
  gen.tenant_weights = {1.0, 1.0};
  const auto tagged = trace::GenerateTrace("tagged", gen);
  ASSERT_EQ(plain.size(), tagged.size());
  bool saw[2] = {false, false};
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const auto& a = plain.jobs()[i];
    const auto& b = tagged.jobs()[i];
    ASSERT_DOUBLE_EQ(a.submit_time, b.submit_time);
    ASSERT_EQ(a.task_durations, b.task_durations);
    ASSERT_EQ(a.constraints.size(), b.constraints.size());
    EXPECT_EQ(a.tenant, 0xffff);
    ASSERT_LT(b.tenant, 2);
    saw[b.tenant] = true;
  }
  EXPECT_TRUE(saw[0]);
  EXPECT_TRUE(saw[1]);
}

TEST(Tenancy, MultiSeedRunsAreDeterministicAcrossThreadBudgets) {
  const auto cl = cluster::BuildCluster({.num_machines = 24, .seed = 51});
  const auto t = TenantedGoogleTrace(300, 24, 0.75, 51);
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.config.seed = 51;
  o.config.tenancy = ThreeTenants(60.0);

  auto run = [&](std::size_t threads) {
    ScopedThreads st(threads);
    return runner::RepeatedRuns(t, cl, o, 3);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.reports().size(), parallel.reports().size());
  for (std::size_t i = 0; i < serial.reports().size(); ++i) {
    const auto& a = serial.reports()[i];
    const auto& b = parallel.reports()[i];
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.total_busy_time, b.total_busy_time);
    EXPECT_EQ(a.counters.preemptions_issued, b.counters.preemptions_issued);
    EXPECT_EQ(a.counters.tenant_admits, b.counters.tenant_admits);
    EXPECT_EQ(a.counters.tenant_downgrades, b.counters.tenant_downgrades);
    EXPECT_EQ(a.counters.tenant_rejects, b.counters.tenant_rejects);
    EXPECT_DOUBLE_EQ(a.tenant_fairness_jain, b.tenant_fairness_jain);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t k = 0; k < a.tenants.size(); ++k) {
      EXPECT_DOUBLE_EQ(a.tenants[k].usage_seconds,
                       b.tenants[k].usage_seconds);
      EXPECT_EQ(a.tenants[k].preemptions_suffered,
                b.tenants[k].preemptions_suffered);
    }
  }
}

}  // namespace
}  // namespace phoenix
