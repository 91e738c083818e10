// Energy/power subsystem tests: the machine power model invariants, the
// EnergyMeter dwell integral, the controller's median wait against a
// full-list selection and its utilization EWMA step against the plain
// update, park/wake lifecycle transitions under scheduler control (veto
// while holding work, double-park idempotency, wake during drain), the
// auditor's power rules (transition legality, energy conservation), and
// end-to-end powered runs (audit-clean, energy actually saved,
// dispatch-time demand wakes, bit-identical across thread budgets,
// meter-only runs identical to unpowered ones). Registered under the
// "power" ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/builder.h"
#include "cluster/membership.h"
#include "obs/audit.h"
#include "power/config.h"
#include "power/controller.h"
#include "power/manager.h"
#include "power/meter.h"
#include "power/model.h"
#include "runner/experiment.h"
#include "runner/parallel.h"
#include "runner/registry.h"
#include "sim/engine.h"
#include "trace/generators.h"
#include "util/rng.h"

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

power::PowerConfig PowerOn(bool park, bool dvfs) {
  power::PowerConfig pc;
  pc.enabled = true;
  pc.policy.park = park;
  pc.policy.dvfs = dvfs;
  return pc;
}

// ---- Power model invariants ------------------------------------------------

TEST(PowerModel, CatalogOrderingInvariants) {
  for (const power::MachineClass& c : power::ClassCatalog()) {
    EXPECT_GT(c.sleep_watts, 0.0) << c.name;
    EXPECT_GT(c.wake_latency, 0.0) << c.name;
    for (unsigned p = 0; p < power::kNumPStates; ++p) {
      // Watts strictly ordered exec > idle > sleep at every P-state.
      EXPECT_GT(c.exec_watts[p], c.idle_watts[p]) << c.name << " p" << p;
      EXPECT_GT(c.idle_watts[p], c.sleep_watts) << c.name << " p" << p;
      if (p > 0) {
        // Deeper P-states are strictly slower and strictly cheaper.
        EXPECT_LT(c.exec_watts[p], c.exec_watts[p - 1]) << c.name;
        EXPECT_LT(c.idle_watts[p], c.idle_watts[p - 1]) << c.name;
        EXPECT_LT(c.mips[p], c.mips[p - 1]) << c.name;
      }
    }
  }
}

TEST(PowerModel, PerMachineQueriesAreConsistent) {
  const auto cl = MakeUniverse(32, 11);
  const power::PowerModel model(cl);
  ASSERT_EQ(model.size(), cl.size());
  for (cluster::MachineId id = 0; id < cl.size(); ++id) {
    EXPECT_EQ(model.SpeedScale(id, 0), 1.0);
    for (unsigned p = 1; p < power::kNumPStates; ++p) {
      EXPECT_GT(model.SpeedScale(id, p), model.SpeedScale(id, p - 1));
    }
    EXPECT_EQ(model.ExecWatts(id, 0), model.cls(id).exec_watts[0]);
  }
  // The class map is a pure function of immutable attributes: the same
  // cluster always produces the same classes.
  const power::PowerModel again(cl);
  for (cluster::MachineId id = 0; id < cl.size(); ++id) {
    EXPECT_EQ(model.class_of(id), again.class_of(id));
  }
}

// ---- EnergyMeter dwell integral -------------------------------------------

TEST(EnergyMeter, IntegratesDwellsExactly) {
  power::EnergyMeter meter;
  meter.Init(0.0, {100.0, 10.0});
  meter.SetWatts(0, 10.0, 50.0);   // 100 W for 10 s = 1000 J
  meter.SetWatts(0, 30.0, 200.0);  // 50 W for 20 s = 1000 J
  // Channel 1 never transitions: 10 W for the whole horizon.
  EXPECT_DOUBLE_EQ(meter.MachineJoules(0, 40.0), 1000 + 1000 + 200.0 * 10);
  EXPECT_DOUBLE_EQ(meter.MachineJoules(1, 40.0), 400.0);
  EXPECT_DOUBLE_EQ(meter.TotalJoules(40.0), 4400.0);
}

TEST(EnergyMeter, ReadsAreConstAndRepeatable) {
  power::EnergyMeter meter;
  meter.Init(5.0, {42.0});
  meter.SetWatts(0, 15.0, 7.0);
  const double first = meter.TotalJoules(100.0);
  // A read closes dwells at the horizon without mutating the channel.
  EXPECT_DOUBLE_EQ(meter.TotalJoules(100.0), first);
  EXPECT_DOUBLE_EQ(meter.watts(0), 7.0);
  // A later transition still accrues from the real last change, not the
  // previously read horizon.
  meter.SetWatts(0, 25.0, 0.0);
  EXPECT_DOUBLE_EQ(meter.TotalJoules(25.0), 42.0 * 10 + 7.0 * 10);
}

// ---- Controller fleet signals ----------------------------------------------

TEST(PowerSignals, MedianWaitMatchesFullListSelection) {
  // Zero waits below, at and above half the awake fleet, for odd and even
  // fleets: the non-zero selection must land on the element nth_element
  // picks over the whole list.
  util::Rng rng(5);
  for (const std::size_t fleet : {std::size_t{9}, std::size_t{10}}) {
    for (std::size_t zeros = 0; zeros <= fleet; ++zeros) {
      std::vector<double> nonzero;
      for (std::size_t i = zeros; i < fleet; ++i) {
        // Repeated values too, so ties are covered.
        nonzero.push_back(1.0 + static_cast<double>(rng.NextBounded(4)));
      }
      std::vector<double> all(zeros, 0.0);
      all.insert(all.end(), nonzero.begin(), nonzero.end());
      const auto mid = all.begin() + static_cast<std::ptrdiff_t>(fleet / 2);
      std::nth_element(all.begin(), mid, all.end());
      EXPECT_EQ(power::MedianWait(zeros, nonzero), *mid)
          << "fleet=" << fleet << " zeros=" << zeros;
    }
  }
  std::vector<double> none;
  EXPECT_EQ(power::MedianWait(0, none), 0.0);
}

TEST(PowerSignals, UtilEwmaStepIsBitwiseThePlainUpdate) {
  // The plain update the controller's sample used to run on every tick.
  const auto plain = [](double e, bool occupied) {
    return e + 0.2 * ((occupied ? 1.0 : 0.0) - e);
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const double tiny = std::numeric_limits<double>::denorm_min();
  // Idle ticks from 1.0, from 0.2 and from one tick above the subnormal
  // range, until the plain update stops moving the value: the production
  // step must agree bit for bit at every tick, and the value must come to
  // rest on the 2 x denorm_min fixed point the step skips.
  for (const double start :
       {1.0, 0.2, std::numeric_limits<double>::min() / 0.8}) {
    double e = start;
    std::size_t ticks = 0;
    for (;;) {
      const double next = plain(e, false);
      ASSERT_EQ(bits(power::StepUtilEwma(e, false)), bits(next))
          << "from " << start << " at tick " << ticks;
      if (bits(next) == bits(e)) break;
      e = next;
      ++ticks;
      ASSERT_LT(ticks, 10000u) << "from " << start;
    }
    EXPECT_EQ(bits(e), bits(2 * tiny)) << "from " << start;
  }
  // An occupied tick from the bottom of the range leaves it at once.
  for (const double e : {0.0, tiny, 2 * tiny}) {
    EXPECT_EQ(bits(power::StepUtilEwma(e, true)), bits(plain(e, true)))
        << "from " << e;
    EXPECT_EQ(bits(power::StepUtilEwma(e, false)), bits(plain(e, false)))
        << "from " << e;
  }
}

// ---- Park/wake transitions under scheduler control ------------------------

/// A scheduler wired the way RunSimulation wires a powered run, with the
/// engine exposed so tests can inject decisions at chosen instants. Owns a
/// copy of the trace: the scheduler holds pointers into it for the whole
/// run.
struct PoweredHarness {
  PoweredHarness(const cluster::Cluster& cl, trace::Trace t,
                 const power::PowerConfig& pc)
      : trace(std::move(t)), view(cl, cl.size()), manager(cl, pc) {
    sched::SchedulerConfig sc;
    sc.seed = 7;
    scheduler = runner::MakeScheduler("phoenix", engine, cl, sc);
    scheduler->SetMembership(&view);
    scheduler->SetPower(&manager);
    scheduler->SubmitTrace(trace);
  }

  metrics::SimReport Finish() {
    engine.Run();
    scheduler->FinalAudit();
    return scheduler->BuildReport();
  }

  trace::Trace trace;
  sim::Engine engine;
  cluster::MembershipView view;
  power::PowerManager manager;
  std::unique_ptr<sched::SchedulerBase> scheduler;
};

trace::Trace OneTaskTrace(double submit, double duration) {
  trace::Job j;
  j.id = 0;
  j.submit_time = submit;
  j.task_durations = {duration};
  j.short_job = true;
  trace::Trace t("test", {j});
  t.set_short_cutoff(100.0);
  return t;
}

TEST(ParkTransitions, ParkWakeRoundTripAndDoubleParkIsIdempotent) {
  const auto cl = MakeUniverse(4, 3);
  PoweredHarness h(cl, OneTaskTrace(0.0, 5.0), PowerOn(false, false));
  h.engine.ScheduleAfter(50.0, [&] {
    EXPECT_TRUE(h.scheduler->ParkMachine(3));
    EXPECT_EQ(h.view.state(3), MachineLifecycle::kParked);
    EXPECT_TRUE(h.manager.asleep(3));
    // Double park: idempotent no-op, not a crash and not a second event.
    EXPECT_FALSE(h.scheduler->ParkMachine(3));
  });
  h.engine.ScheduleAfter(60.0, [&] {
    h.scheduler->WakeParkedMachine(3);
    EXPECT_EQ(h.view.state(3), MachineLifecycle::kProvisioning);
    EXPECT_FALSE(h.view.Bindable(3));
  });
  h.engine.ScheduleAfter(60.0 + h.manager.WakeLatency(3) + 1.0, [&] {
    EXPECT_EQ(h.view.state(3), MachineLifecycle::kActive);
    EXPECT_FALSE(h.manager.asleep(3));
    EXPECT_EQ(h.manager.p_state(3), 0u);  // wakes land at full clock
  });
  const auto report = h.Finish();
  EXPECT_EQ(report.counters.power_parks, 1u);
  EXPECT_EQ(report.counters.power_wakes, 1u);
  EXPECT_GT(report.sleep_machine_seconds, 0.0);
}

TEST(ParkTransitions, ParkIsVetoedWhileMachineHoldsWork) {
  const auto cl = MakeUniverse(1, 3);
  PoweredHarness h(cl, OneTaskTrace(0.0, 50.0), PowerOn(false, false));
  h.engine.ScheduleAfter(10.0, [&] {
    // The single machine is mid-execution: parking would strand the task.
    EXPECT_FALSE(h.scheduler->worker_state(0).runs.empty());
    EXPECT_FALSE(h.scheduler->ParkMachine(0));
    EXPECT_EQ(h.view.state(0), MachineLifecycle::kActive);
  });
  const auto report = h.Finish();
  EXPECT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.counters.power_parks, 0u);
}

TEST(ParkTransitions, ViewAllowsParkFromDrainingAndWakeAfterwards) {
  // The elastic return edge: a draining machine may fall into S3 instead of
  // retiring, and later rejoin through the normal provisioning path.
  const auto cl = MakeUniverse(8, 3);
  cluster::MembershipView view(cl, 4);
  view.SetState(5, MachineLifecycle::kProvisioning);
  view.SetState(5, MachineLifecycle::kActive);
  view.SetState(5, MachineLifecycle::kDraining);
  view.SetState(5, MachineLifecycle::kParked);
  // Machines 4..7 started parked (8 - 4 guaranteed), 5 left and came back.
  EXPECT_EQ(view.parked_count(), 4u);
  view.SetState(5, MachineLifecycle::kProvisioning);
  view.SetState(5, MachineLifecycle::kActive);
  EXPECT_TRUE(view.Bindable(5));
  EXPECT_EQ(view.parked_count(), 3u);
}

TEST(ParkTransitions, ParkedSatisfierCountTracksTransitions) {
  const auto cl = MakeUniverse(16, 9);
  cluster::MembershipView view(cl, 16);
  const cluster::Constraint c{cluster::Attr::kNumCores,
                              cluster::ConstraintOp::kGreater, 1, true};
  EXPECT_EQ(view.CountParkedSatisfying(c), 0u);
  std::size_t parked_satisfying = 0;
  for (cluster::MachineId id = 0; id < 8; ++id) {
    view.SetState(id, MachineLifecycle::kParked);
    if (cl.machine(id).Satisfies(c)) ++parked_satisfying;
  }
  EXPECT_EQ(view.CountParkedSatisfying(c), parked_satisfying);
  view.SetState(0, MachineLifecycle::kProvisioning);
  if (cl.machine(0).Satisfies(c)) --parked_satisfying;
  EXPECT_EQ(view.CountParkedSatisfying(c), parked_satisfying);
}

// ---- Dispatch-time demand wake --------------------------------------------

TEST(DemandWake, FullyParkedFleetStillServesArrivals) {
  // Park the whole fleet, then let a job arrive: placement must wake a
  // satisfying machine (deliveries bounce until the S3 exit commissions it)
  // instead of aborting on an empty probe pool.
  const auto cl = MakeUniverse(4, 3);
  PoweredHarness h(cl, OneTaskTrace(100.0, 5.0), PowerOn(false, false));
  h.engine.ScheduleAfter(50.0, [&] {
    for (cluster::MachineId id = 0; id < 4; ++id) {
      EXPECT_TRUE(h.scheduler->ParkMachine(id));
    }
    EXPECT_EQ(h.view.bindable_count(), 0u);
  });
  const auto report = h.Finish();
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_GE(report.counters.power_demand_wakes, 1u);
  EXPECT_GE(report.counters.power_wakes, 1u);
  // The job pays at least the S3 exit of some machine before starting.
  double min_wake = h.manager.WakeLatency(0);
  for (cluster::MachineId id = 1; id < 4; ++id) {
    min_wake = std::min(min_wake, h.manager.WakeLatency(id));
  }
  EXPECT_GE(report.jobs[0].completion, 100.0 + min_wake + 5.0);
}

// ---- Auditor power rules ---------------------------------------------------

obs::Event PowerEvent(double time, obs::EventType type, std::uint32_t machine,
                      double value = 0) {
  obs::Event e;
  e.time = time;
  e.type = type;
  e.machine = machine;
  e.value = value;
  return e;
}

TEST(AuditorPower, EnergyConservationHolds) {
  obs::InvariantAuditor audit;
  audit.OnEvent(PowerEvent(0, obs::EventType::kPowerState, 0, 100.0));
  audit.OnEvent(PowerEvent(10, obs::EventType::kPowerState, 0, 50.0));
  audit.OnEvent(PowerEvent(0, obs::EventType::kPowerState, 1, 10.0));
  // 100 W x 10 s + 50 W x 10 s + 10 W x 20 s, closed at horizon 20.
  audit.ExpectEnergy(1700.0, 20.0);
  audit.Finish();
  EXPECT_TRUE(audit.ok()) << audit.Summary();
  EXPECT_EQ(audit.power_events_seen(), 3u);
}

TEST(AuditorPower, EnergyConservationViolationIsCaught) {
  obs::InvariantAuditor audit;
  audit.OnEvent(PowerEvent(0, obs::EventType::kPowerState, 0, 100.0));
  // The scheduler claims joules the event stream cannot account for — a
  // missed transition somewhere.
  audit.ExpectEnergy(9999.0, 10.0);
  audit.Finish();
  EXPECT_FALSE(audit.ok());
}

TEST(AuditorPower, NegativeDrawIsViolation) {
  obs::InvariantAuditor audit;
  audit.OnEvent(PowerEvent(0, obs::EventType::kPowerState, 0, -5.0));
  EXPECT_FALSE(audit.ok());
}

TEST(AuditorPower, DvfsOnParkedMachineIsViolation) {
  obs::InvariantAuditor audit;
  audit.OnEvent(PowerEvent(0, obs::EventType::kMachinePark, 2));
  audit.OnEvent(PowerEvent(1, obs::EventType::kPowerDvfs, 2, 60.0));
  EXPECT_FALSE(audit.ok());
}

TEST(AuditorPower, WakeOfActiveMachineIsViolation) {
  obs::InvariantAuditor audit;
  audit.OnEvent(PowerEvent(0, obs::EventType::kPowerWake, 2, 10.0));
  EXPECT_FALSE(audit.ok());
}

TEST(AuditorPower, LegalParkWakeSequenceIsClean) {
  obs::InvariantAuditor audit;
  audit.OnEvent(PowerEvent(0, obs::EventType::kPowerPark, 4));
  audit.OnEvent(PowerEvent(0, obs::EventType::kMachinePark, 4));
  audit.OnEvent(PowerEvent(30, obs::EventType::kPowerWake, 4, 10.0));
  audit.OnEvent(PowerEvent(30, obs::EventType::kMachineProvision, 4, 10.0));
  audit.OnEvent(PowerEvent(40, obs::EventType::kMachineCommission, 4));
  audit.OnEvent(PowerEvent(50, obs::EventType::kPowerDvfs, 4, 50.0));
  audit.Finish();
  EXPECT_TRUE(audit.ok()) << audit.Summary();
}

// ---- End-to-end powered runs ----------------------------------------------

TEST(PoweredRun, AuditCleanWithParksAndEnergyAccounting) {
  const auto cl = MakeUniverse(32, 23);
  const auto t = trace::GenerateGoogleTrace(300, 32, 0.35, 23);
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.power = PowerOn(true, true);
  o.obs.audit = true;  // the runner aborts on any auditor violation
  const runner::RepeatedRuns runs(t, cl, o, 2);
  for (const auto& r : runs.reports()) {
    EXPECT_EQ(r.jobs.size(), t.size());
    EXPECT_TRUE(r.power_enabled);
    EXPECT_GT(r.total_joules, 0.0);
    EXPECT_GT(r.energy_per_task, 0.0);
    EXPECT_GT(r.energy_delay_product, 0.0);
    EXPECT_GT(r.counters.power_parks, 0u);
    EXPECT_GT(r.sleep_machine_seconds, 0.0);
  }
}

TEST(PoweredRun, DeepParkSavesEnergy) {
  const auto cl = MakeUniverse(32, 29);
  const auto t = trace::GenerateGoogleTrace(300, 32, 0.35, 29);
  runner::RunOptions meter;
  meter.scheduler = "phoenix";
  meter.power = PowerOn(false, false);
  runner::RunOptions park = meter;
  park.power = PowerOn(true, false);
  const auto r_meter = runner::RunSimulation(t, cl, meter);
  const auto r_park = runner::RunSimulation(t, cl, park);
  EXPECT_EQ(r_meter.counters.power_parks, 0u);
  EXPECT_GT(r_park.counters.power_parks, 0u);
  EXPECT_LT(r_park.total_joules, r_meter.total_joules);
}

TEST(PoweredRun, MeterOnlyRunMatchesUnpoweredSchedule) {
  // Metering alone must not move a single scheduling decision: the power
  // plane only observes until a park or DVFS policy actuates.
  const auto cl = MakeUniverse(24, 31);
  const auto t = trace::GenerateGoogleTrace(300, 24, 0.8, 31);
  runner::RunOptions off;
  off.scheduler = "phoenix";
  runner::RunOptions meter = off;
  meter.power = PowerOn(false, false);
  const auto r_off = runner::RunSimulation(t, cl, off);
  const auto r_meter = runner::RunSimulation(t, cl, meter);
  EXPECT_EQ(r_off.makespan, r_meter.makespan);
  EXPECT_EQ(r_off.counters.probes_sent, r_meter.counters.probes_sent);
  EXPECT_EQ(r_off.Utilization(), r_meter.Utilization());
  const auto p_off = r_off.QueuingSummary(metrics::ClassFilter::kShort,
                                          metrics::ConstraintFilter::kAll);
  const auto p_meter = r_meter.QueuingSummary(metrics::ClassFilter::kShort,
                                              metrics::ConstraintFilter::kAll);
  EXPECT_EQ(p_off.p99, p_meter.p99);
  EXPECT_FALSE(r_off.power_enabled);
  EXPECT_EQ(r_off.total_joules, 0.0);
  EXPECT_TRUE(r_meter.power_enabled);
  EXPECT_GT(r_meter.total_joules, 0.0);
}

TEST(PoweredRun, BitIdenticalAcrossThreadCounts) {
  const auto cl = MakeUniverse(32, 37);
  const auto t = trace::GenerateGoogleTrace(300, 32, 0.35, 37);
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.power = PowerOn(true, true);
  auto summarize = [&](std::size_t threads) {
    ScopedThreads guard(threads);
    const runner::RepeatedRuns runs(t, cl, o, 3);
    std::vector<double> values;
    for (const auto& r : runs.reports()) {
      values.push_back(r.makespan);
      values.push_back(r.total_joules);
      values.push_back(r.sleep_machine_seconds);
      values.push_back(static_cast<double>(r.counters.power_parks));
      values.push_back(static_cast<double>(r.counters.power_wakes));
      values.push_back(static_cast<double>(r.counters.power_dvfs_raises));
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

TEST(PoweredRun, ElasticDrainsParkInsteadOfRetiring) {
  // With a power plane attached, the elastic controller's scale-down retire
  // edge lands in S3 (the lease can come back cheaply) instead of leaving
  // the fleet. Bursty load drives scale-up in the swells and scale-down in
  // the troughs; no reclamation, so every drain is a scale-down decision.
  const auto cl = MakeUniverse(48, 33);
  auto gen = trace::ProfileByName("google");
  gen.num_jobs = 500;
  gen.num_workers = 24;
  gen.target_load = 0.4;
  gen.seed = 33;
  gen.burst_factor = 3.0;
  gen.burst_fraction = 0.4;
  gen.burst_duration_mean = 300.0;
  const auto t = trace::GenerateTrace("bursty", gen);
  runner::RunOptions o;
  o.scheduler = "phoenix";
  o.elastic.enabled = true;
  o.elastic.base_machines = 24;
  o.elastic.reserve_machines = 24;
  o.elastic.warmup_delay = 10.0;
  o.elastic.drain_grace = 30.0;
  // The clamped straggler estimates keep the elastic mean in the tens of
  // thousands of seconds through the bursts; it only settles near ~100 s in
  // the drain tail. Bracket that: scale up through the run, scale down in
  // the tail, and every drained machine must fall into S3 rather than
  // retiring. Power policy stays meter-only so the power controller's own
  // park pass cannot race the elastic drains — the retire edge parks
  // whenever a manager is attached.
  o.elastic.target_wait = 200.0;
  o.elastic.scale_down_factor = 0.9;
  o.power = PowerOn(false, false);
  o.obs.audit = true;
  const runner::RepeatedRuns runs(t, cl, o, 1);
  const auto& r = runs.reports()[0];
  EXPECT_EQ(r.jobs.size(), t.size());
  EXPECT_GT(r.counters.elastic_drains, 0u);
  EXPECT_GT(r.counters.power_parks_instead_of_retire, 0u);
}

}  // namespace
}  // namespace phoenix
