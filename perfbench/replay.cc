// One replay of a repository-benchmark workload, reported as JSON on stdout.
//
//   phoenix_replay --workload=paper-15k --seed=7 --mode=plain
//   phoenix_replay --workload=lossy-sharded --seed=7 --mode=traced
//
// A process is one replay: trace synthesis, cluster build, scheduler set-up,
// engine drain and report, each timed with steady_clock around the public
// call that does the work. `--mode=traced` also attaches a counting event
// sink for the drain and afterwards times the hot calls in isolation, fed
// with this replay's own trace and fleet. `--mode=setup` stops after the
// set-up, so a cold-process set-up can be sampled cheaply. run.py drives
// the replays, one child process each, and owns the statistics.
//
// Correctness checks run on every replay: the queue drained, every trace job
// completed with its trace task count, the report's invariants hold, and the
// online auditor (where the workload enables it) is clean. The report also
// carries a fingerprint of the simulated outcome (events fired plus a hash of
// every JobOutcome), which must not depend on the mode.
//
// `--fault=check|abort` exists for run.py's self-tests: `check` breaks one
// correctness check on purpose, `abort` dies through PHOENIX_CHECK before
// the drain, as a crashing replay would (set-up-only replays ignore it).
//
// Exit status: 0 clean, 3 when a correctness check failed (the report is
// still printed), 1 on bad arguments, abort() on a PHOENIX_CHECK failure.
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.h"
#include "cluster/membership.h"
#include "core/crv.h"
#include "obs/audit.h"
#include "obs/event.h"
#include "power/controller.h"
#include "power/manager.h"
#include "runner/registry.h"
#include "sim/engine.h"
#include "util/check.h"
#include "util/rng.h"

using namespace phoenix;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// Doubles go out with every digit; JsonObject's numeric form keeps six.
std::string Exact(double v) { return util::StrFormat("%.17g", v); }

/// The workloads, resolved to the common bench options. Every one runs the
/// phoenix scheduler over the `google` profile with 4 jobs per worker, but
/// lossy-sharded has 8: most of its events are heartbeat traffic over the
/// drain's tail, whose length swings with the trace's longest job, and a
/// longer trace dilutes that swing (per-replay wall time varies ~30% between
/// trace seeds at 4 jobs per worker, ~14% at 8).
/// paper-15k and lossy-sharded draw Poisson arrivals (the `steady` shape):
/// the profile's own MMPP bursts are ~2000 s apart, about one per trace at
/// this size, so whether a seed drew zero, one or two of them would swing
/// every latency figure several-fold from seed to seed.
std::optional<bench::BenchOptions> ResolveWorkload(const std::string& name,
                                                   std::uint64_t seed) {
  bench::BenchOptions o;
  o.seed = seed;
  o.runs = 1;
  o.threads = 1;
  std::size_t jobs_per_worker = 4;
  if (name == "paper-15k") {
    o.nodes = 15000;
    o.load = 0.85;
    o.shape = "steady";
  } else if (name == "packed-powered") {
    o.nodes = 6000;
    o.load = 0.5;
    o.shape = "diurnal";
    o.packing.enabled = true;
    o.packing.gang_fraction = 0.1;
    o.packing.malleable_fraction = 0.1;
    // Power metering and DVFS, but no parking: parking under packing leaves
    // about a third of the seeds with a drain that never ends.
    o.power.enabled = true;
    o.power.policy.park = false;
    o.workflow.dag = true;
    o.workflow.deadline = true;
    o.dag_shape = "chain";
  } else if (name == "lossy-sharded") {
    o.nodes = 1000;
    o.load = 0.85;
    o.shape = "steady";
    o.federation.shards = 4;
    o.net.model = net::LatencyModel::kLognormal;
    o.net.drop_rate = 0.02;
    o.net.duplicate_rate = 0.02;
    o.net.reorder_rate = 0.02;
    o.obs.audit = true;
    jobs_per_worker = 8;
  } else if (name == "selftest-tiny") {
    // Not a benchmark workload: the small fleet run.py's self-tests use.
    o.nodes = 200;
    o.load = 0.85;
  } else {
    return std::nullopt;
  }
  o.jobs = jobs_per_worker * o.nodes;
  return o;
}

/// Counts every event type the scheduler emits, and samples the engine's
/// live calendar population at each heartbeat tick (the population the
/// isolated ScheduleAt timing is run at).
class CountingSink final : public obs::EventSink {
 public:
  explicit CountingSink(const sim::Engine& engine) : engine_(engine) {}

  void OnEvent(const obs::Event& event) override {
    ++counts_[static_cast<std::size_t>(event.type)];
    if (event.type == obs::EventType::kHeartbeat) {
      live_sum_ += static_cast<double>(engine_.pending_entries());
      ++live_samples_;
    }
  }

  const std::array<std::uint64_t, obs::kNumEventTypes>& counts() const {
    return counts_;
  }
  double MeanLivePopulation() const {
    return live_samples_ == 0 ? 0.0 : live_sum_ / live_samples_;
  }

 private:
  const sim::Engine& engine_;
  std::array<std::uint64_t, obs::kNumEventTypes> counts_{};
  double live_sum_ = 0;
  std::uint64_t live_samples_ = 0;
};

/// FNV-1a over the simulated outcome: identical for identical schedules.
class Fingerprint {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  std::string Hex() const {
    return util::StrFormat("%016llx", static_cast<unsigned long long>(hash_));
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string OutcomeFingerprint(const metrics::SimReport& report) {
  Fingerprint fp;
  fp.Add(static_cast<std::uint64_t>(report.events_fired));
  for (const metrics::JobOutcome& j : report.jobs) {
    fp.Add(static_cast<std::uint64_t>(j.id));
    fp.Add(j.submit);
    fp.Add(j.completion);
    fp.Add(j.queuing_delay);
    fp.Add(j.max_task_wait);
    fp.Add(static_cast<std::uint64_t>(j.num_tasks));
    fp.Add(static_cast<std::uint64_t>(j.short_class) << 1 |
           static_cast<std::uint64_t>(j.constrained));
    fp.Add(static_cast<std::uint64_t>(j.racks_used));
  }
  return fp.Hex();
}

/// Percentile of a job slice; 0 for an empty slice.
double SlicePercentile(std::vector<double> values, double p) {
  return values.empty() ? 0.0 : metrics::Percentile(values, p);
}

/// Accumulates results of the isolated timings so the optimizer cannot
/// drop the calls; printed with the report.
std::uint64_t g_consumed = 0;

/// Calls `op(i)` for i = 0, 1, ... in chunks of `chunk` until `budget_s`
/// seconds have passed (at least one chunk). Returns nanoseconds per call.
template <typename Op>
double NsPerCall(std::size_t chunk, double budget_s, Op op) {
  const auto start = Clock::now();
  std::size_t calls = 0;
  std::int64_t elapsed = 0;
  do {
    for (std::size_t k = 0; k < chunk; ++k) op(calls + k);
    calls += chunk;
    elapsed = NsSince(start);
  } while (static_cast<double>(elapsed) < budget_s * 1e9);
  return static_cast<double>(elapsed) / static_cast<double>(calls);
}

struct IsolatedTimings {
  double sample_ns = 0;
  double crv_update_ns = 0;
  double count_admissible_ns = 0;
  double schedule_fire_ns = 0;
  std::size_t live_population = 0;
};

/// Times the hot calls the drain makes, on this replay's trace constraint
/// sets, fleet and task durations. Each is warmed with a pass first, as the
/// drain warms the lazily built pools before the steady state.
IsolatedTimings TimeHotCalls(const trace::Trace& trace,
                             const cluster::Cluster& cl,
                             double live_population, std::uint64_t seed) {
  constexpr double kBudget = 0.25;  // seconds per timed call
  IsolatedTimings t;
  const std::vector<trace::Job>& jobs = trace.jobs();
  const std::size_t n = jobs.size();

  // Cluster::SampleSatisfying over every job's constraint set.
  util::Rng rng(seed);
  for (const trace::Job& j : jobs) {
    g_consumed += cl.SampleSatisfying(j.constraints, rng);
  }
  t.sample_ns = NsPerCall(1024, kBudget, [&](std::size_t i) {
    g_consumed += cl.SampleSatisfying(jobs[i % n].constraints, rng);
  });

  // CrvMonitor enqueue/dequeue over the constrained jobs' sets, a sliding
  // window of queued entries (each call is one enqueue and one dequeue).
  std::vector<const cluster::ConstraintSet*> constrained;
  for (const trace::Job& j : jobs) {
    if (!j.constraints.empty()) constrained.push_back(&j.constraints);
  }
  if (!constrained.empty()) {
    const std::size_t m = constrained.size();
    const std::size_t window = std::min<std::size_t>(m, 1024);
    core::CrvMonitor crv(cl);
    for (std::size_t i = 0; i < m; ++i) {
      crv.OnEnqueue(*constrained[i]);
      crv.OnDequeue(*constrained[i]);
    }
    for (std::size_t i = 0; i < window; ++i) crv.OnEnqueue(*constrained[i]);
    t.crv_update_ns =
        NsPerCall(1024, kBudget, [&](std::size_t i) {
          crv.OnEnqueue(*constrained[(i + window) % m]);
          crv.OnDequeue(*constrained[i % m]);
        }) /
        2.0;
    g_consumed += crv.DemandFor(cluster::CrvDim::kCpu);
  }

  // MembershipView::CountAdmissible, as a powered or elastic run's
  // admission calls it: an all-active view over the whole fleet.
  cluster::MembershipView view(cl, cl.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(n, 256); ++i) {
    g_consumed += view.CountAdmissible(jobs[i].constraints);
  }
  t.count_admissible_ns = NsPerCall(16, kBudget, [&](std::size_t i) {
    g_consumed += view.CountAdmissible(jobs[i % n].constraints);
  });

  // Engine::ScheduleAt + fire at the drain's mean live population, with the
  // trace's task durations as the scheduling offsets.
  std::vector<double> durations;
  for (const trace::Job& j : jobs) {
    durations.insert(durations.end(), j.task_durations.begin(),
                     j.task_durations.end());
    if (durations.size() >= (1u << 20)) break;
  }
  const std::size_t d = durations.size();
  t.live_population =
      std::max<std::size_t>(1, static_cast<std::size_t>(live_population));
  sim::Engine engine;
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < t.live_population; ++i) {
    engine.ScheduleAfter(durations[i % d], [&fired] { ++fired; });
  }
  const auto schedule_and_fire = [&](std::size_t i) {
    engine.ScheduleAfter(durations[(t.live_population + i) % d],
                         [&fired] { ++fired; });
    engine.Step();
  };
  for (std::size_t i = 0; i < t.live_population; ++i) schedule_and_fire(i);
  t.schedule_fire_ns = NsPerCall(1024, kBudget, schedule_and_fire);
  g_consumed += fired;
  return t;
}

enum class Mode { kPlain, kTraced, kSetup };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  Mode mode = Mode::kPlain;
  std::string fault = "none";
};

/// The resolved workload and the build that ran it: the run manifest's
/// program half (run.py adds the seed, source revision and host).
void AddRunConfig(bench::JsonEmitter& json, const Options& opt,
                  const bench::BenchOptions& o) {
  static constexpr const char* kNetModels[] = {"constant", "uniform",
                                               "lognormal", "empirical"};
  json.AddCommonConfig(o);
  json.config()
      .Add("workload", opt.workload)
      .Add("scheduler", "phoenix")
      .Add("profile", "google")
      .Add("shape", o.shape.empty() ? "profile" : o.shape)
      .Add("packing", o.packing.enabled)
      .Add("gang_fraction", o.packing.gang_fraction)
      .Add("malleable_fraction", o.packing.malleable_fraction)
      .Add("power", o.power.enabled)
      .Add("dag", o.workflow.dag)
      .Add("deadline", o.workflow.deadline)
      .Add("dag_shape", o.dag_shape)
      .AddInt("shards", o.federation.shards)
      .Add("net_model", kNetModels[static_cast<std::size_t>(o.net.model)])
      .Add("net_drop", o.net.drop_rate)
      .Add("net_dup", o.net.duplicate_rate)
      .Add("net_reorder", o.net.reorder_rate)
      .Add("audit", o.obs.audit)
      .Add("build_type", PERFBENCH_BUILD_TYPE)
#if defined(__clang__)
      .Add("compiler", "clang " __clang_version__)
#else
      .Add("compiler", "g++ " __VERSION__)
#endif
#if defined(__SANITIZE_ADDRESS__)
      .Add("sanitizer", "address")
#elif defined(__SANITIZE_THREAD__)
      .Add("sanitizer", "thread")
#else
      .Add("sanitizer", "none")
#endif
#if defined(__OPTIMIZE__)
      .Add("optimized", true)
#else
      .Add("optimized", false)
#endif
      .AddInt("nproc",
              static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
}

int Replay(const Options& opt, const bench::BenchOptions& o) {
  const auto start = Clock::now();
  bench::JsonEmitter json("perfbench_replay",
                          "one replay of a repository-benchmark workload");
  AddRunConfig(json, opt, o);

  // trace.generate_s: GenerateTrace (+ ApplyDagShape under --dag).
  auto span = Clock::now();
  const trace::Trace trace = bench::MakeTrace("google", o);
  const std::int64_t trace_ns = NsSince(span);

  // cluster.build_s: BuildCluster.
  span = Clock::now();
  const cluster::Cluster cl = bench::MakeCluster(o.nodes, o.seed);
  const std::int64_t cluster_ns = NsSince(span);

  // sched.setup_s: MakeScheduler, the attaches, SubmitTrace.
  span = Clock::now();
  sim::Engine engine;
  sched::SchedulerConfig config;
  config.seed = o.seed;
  config.net = o.net;
  config.rpc = o.rpc;
  config.packing = o.packing;
  config.workflow = o.workflow;
  auto scheduler = runner::MakeScheduler("phoenix", engine, cl, config);
  CountingSink sink(engine);
  if (opt.mode == Mode::kTraced) scheduler->AttachSink(&sink);
  std::unique_ptr<obs::InvariantAuditor> auditor;
  if (o.obs.audit) {
    auditor = std::make_unique<obs::InvariantAuditor>();
    scheduler->AttachAuditor(auditor.get());
  }
  if (o.federation.enabled()) scheduler->EnableFederation(o.federation);
  std::unique_ptr<cluster::MembershipView> membership;
  std::unique_ptr<power::PowerManager> power_mgr;
  std::unique_ptr<power::PowerController> power_ctl;
  if (o.power.enabled) {
    membership = std::make_unique<cluster::MembershipView>(cl, cl.size());
    scheduler->SetMembership(membership.get());
    power_mgr = std::make_unique<power::PowerManager>(cl, o.power);
    scheduler->SetPower(power_mgr.get());
    power_ctl = std::make_unique<power::PowerController>(
        engine, *scheduler, *membership, *power_mgr, cl.size());
  }
  scheduler->SubmitTrace(trace);
  if (power_ctl) power_ctl->Start();
  const std::int64_t sched_ns = NsSince(span);
  if (opt.mode == Mode::kSetup) {
    json.NewCell()
        .Add("group", "timing")
        .AddInt("trace_ns", trace_ns)
        .AddInt("cluster_ns", cluster_ns)
        .AddInt("sched_setup_ns", sched_ns);
    std::fputs(json.Render().c_str(), stdout);
    return 0;
  }
  PHOENIX_CHECK_MSG(opt.fault != "abort",
                    "deliberate failure requested by --fault=abort");

  // sim.drain_s: Engine::Run.
  span = Clock::now();
  engine.Run();
  const std::int64_t drain_ns = NsSince(span);

  // metrics.report_s: the final audit, BuildReport and the summaries.
  span = Clock::now();
  const bool drained = engine.Empty();
  scheduler->FinalAudit();
  metrics::SimReport report = scheduler->BuildReport();
  report.events_fired = engine.events_fired();
  report.sim_wall_seconds = static_cast<double>(drain_ns) * 1e-9;
  if (power_ctl) {
    const auto& stats = power_ctl->stats();
    report.counters.power_park_vetoes_coverage = stats.park_vetoes_coverage;
    report.counters.power_park_vetoes_floor = stats.park_vetoes_floor;
    report.counters.power_wake_decisions = stats.wake_decisions;
  }
  using metrics::ClassFilter;
  using metrics::ConstraintFilter;
  const double short_p50 = SlicePercentile(
      report.ResponseTimes(ClassFilter::kShort, ConstraintFilter::kAll), 50);
  const double short_p99 = SlicePercentile(
      report.ResponseTimes(ClassFilter::kShort, ConstraintFilter::kAll), 99);
  const double constrained_short_p90_queue = SlicePercentile(
      report.QueuingDelays(ClassFilter::kShort,
                           ConstraintFilter::kConstrained),
      90);
  const double long_p90 = SlicePercentile(
      report.ResponseTimes(ClassFilter::kLong, ConstraintFilter::kAll), 90);
  const double utilization = report.Utilization();
  const std::size_t tasks =
      report.CountTasks(ClassFilter::kAll, ConstraintFilter::kAll);
  std::uint64_t deadline_jobs = 0;
  std::uint64_t deadline_attained = 0;
  for (std::size_t rank = 0; rank < 3; ++rank) {
    deadline_jobs += report.class_deadline_jobs[rank];
    deadline_attained += report.class_deadline_attained[rank];
  }
  const std::int64_t report_ns = NsSince(span);
  const std::int64_t wall_ns = NsSince(start);

  // ---- Correctness ---------------------------------------------------------
  std::vector<std::string> failed_checks;
  if (!drained) failed_checks.push_back("event queue failed to drain");
  std::vector<std::size_t> expected_tasks;
  std::size_t trace_tasks = 0;
  for (const trace::Job& j : trace.jobs()) {
    if (j.id >= expected_tasks.size()) expected_tasks.resize(j.id + 1, 0);
    expected_tasks[j.id] = j.task_durations.size();
    trace_tasks += j.task_durations.size();
  }
  if (opt.fault == "check" && !expected_tasks.empty()) ++expected_tasks[0];
  if (report.jobs.size() != trace.size()) {
    failed_checks.push_back(util::StrFormat(
        "%zu of %zu trace jobs reported", report.jobs.size(), trace.size()));
  }
  std::size_t task_mismatches = 0;
  for (const metrics::JobOutcome& j : report.jobs) {
    if (j.id >= expected_tasks.size() || j.num_tasks != expected_tasks[j.id] ||
        j.completion < j.submit) {
      ++task_mismatches;
    }
  }
  if (task_mismatches > 0) {
    failed_checks.push_back(util::StrFormat(
        "%zu jobs did not complete with their trace task count",
        task_mismatches));
  }
  if (tasks != trace_tasks) {
    failed_checks.push_back(util::StrFormat(
        "%zu tasks completed, trace holds %zu", tasks, trace_tasks));
  }
  report.CheckInvariants();  // aborts on violation
  if (auditor && !auditor->ok()) {
    failed_checks.push_back("auditor: " + auditor->Summary());
  }

  std::optional<IsolatedTimings> hot;
  if (opt.mode == Mode::kTraced) {
    hot = TimeHotCalls(trace, cl, sink.MeanLivePopulation(), o.seed);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  // ---- Report --------------------------------------------------------------
  json.NewCell()
      .Add("group", "timing")
      .AddInt("trace_ns", trace_ns)
      .AddInt("cluster_ns", cluster_ns)
      .AddInt("sched_setup_ns", sched_ns)
      .AddInt("drain_ns", drain_ns)
      .AddInt("report_ns", report_ns)
      .AddInt("wall_ns", wall_ns)
      .AddInt("peak_rss_kb", static_cast<std::uint64_t>(usage.ru_maxrss));
  json.NewCell()
      .Add("group", "outcome")
      .Add("fingerprint", OutcomeFingerprint(report))
      .AddInt("jobs", trace.size())
      .AddInt("tasks", tasks)
      .AddInt("events_fired", report.events_fired)
      .Add("short_p50_response_sim_s", Exact(short_p50))
      .Add("short_p99_response_sim_s", Exact(short_p99))
      .Add("constrained_short_p90_queue_sim_s",
           Exact(constrained_short_p90_queue))
      .Add("long_p90_response_sim_s", Exact(long_p90))
      .Add("utilization", Exact(utilization))
      .Add("joules_per_task", Exact(report.energy_per_task))
      .Add("packing_efficiency", Exact(report.packing_efficiency))
      .Add("deadline_attainment",
           Exact(deadline_jobs == 0
                     ? 1.0
                     : static_cast<double>(deadline_attained) /
                           static_cast<double>(deadline_jobs)));
  const metrics::SchedulerCounters& c = report.counters;
  json.NewCell()
      .Add("group", "counters")
      .AddInt("probes_sent", c.probes_sent)
      .AddInt("probes_cancelled", c.probes_cancelled)
      .AddInt("tasks_stolen", c.tasks_stolen)
      .AddInt("heartbeats", c.heartbeats)
      .AddInt("placement_dead_fallbacks", c.placement_dead_fallbacks)
      .AddInt("tasks_reordered_crv", c.tasks_reordered_crv)
      .AddInt("tasks_reordered_srpt", c.tasks_reordered_srpt)
      .AddInt("crv_reorder_rounds", c.crv_reorder_rounds)
      .AddInt("soft_constraints_relaxed", c.soft_constraints_relaxed)
      .AddInt("tasks_admission_rejected", c.tasks_admission_rejected)
      .AddInt("net_messages_sent", c.net_messages_sent)
      .AddInt("net_messages_dropped", c.net_messages_dropped)
      .AddInt("net_messages_duplicated", c.net_messages_duplicated)
      .AddInt("net_messages_expired", c.net_messages_expired)
      .AddInt("rpc_retries", c.rpc_retries)
      .AddInt("rpc_failures", c.rpc_failures)
      .AddInt("fed_gossip_published", c.fed_gossip_published)
      .AddInt("fed_gossip_applied", c.fed_gossip_applied)
      .AddInt("fed_gossip_stale_dropped", c.fed_gossip_stale_dropped)
      .AddInt("fed_offloads", c.fed_offloads)
      .AddInt("fed_cross_shard_probes", c.fed_cross_shard_probes)
      .AddInt("fed_bind_attempts", c.fed_bind_attempts)
      .AddInt("fed_bind_rejects", c.fed_bind_rejects)
      .AddInt("power_parks", c.power_parks)
      .AddInt("power_wakes", c.power_wakes)
      .AddInt("power_demand_wakes", c.power_demand_wakes)
      .AddInt("power_dvfs_raises", c.power_dvfs_raises)
      .AddInt("power_dvfs_lowers", c.power_dvfs_lowers)
      .AddInt("power_park_vetoes_coverage", c.power_park_vetoes_coverage)
      .AddInt("power_park_vetoes_floor", c.power_park_vetoes_floor)
      .AddInt("packed_tasks", c.packed_tasks)
      .AddInt("pack_fit_rejections", c.pack_fit_rejections)
      .AddInt("gang_commits", c.gang_commits)
      .AddInt("gang_aborts", c.gang_aborts)
      .AddInt("gang_retry_waits", c.gang_retry_waits)
      .AddInt("gangs_degraded", c.gangs_degraded)
      .AddInt("malleable_expands", c.malleable_expands)
      .AddInt("malleable_shrinks", c.malleable_shrinks)
      .AddInt("dag_tasks_released", c.dag_tasks_released)
      .AddInt("deadline_promotions", c.deadline_promotions)
      .AddInt("deadline_misses", c.deadline_misses);
  if (hot) {
    bench::JsonObject& events = json.NewCell().Add("group", "events");
    for (std::size_t i = 0; i < obs::kNumEventTypes; ++i) {
      events.AddInt(obs::EventTypeName(static_cast<obs::EventType>(i)),
                    sink.counts()[i]);
    }
    json.NewCell()
        .Add("group", "hot_calls")
        .Add("sample_ns", Exact(hot->sample_ns))
        .Add("crv_update_ns", Exact(hot->crv_update_ns))
        .Add("count_admissible_ns", Exact(hot->count_admissible_ns))
        .Add("schedule_fire_ns", Exact(hot->schedule_fire_ns))
        .AddInt("live_population", hot->live_population)
        .AddInt("consumed", g_consumed);
  }
  bench::JsonObject& checks = json.NewCell().Add("group", "checks");
  checks.AddInt("failed", failed_checks.size());
  for (std::size_t i = 0; i < failed_checks.size(); ++i) {
    checks.Add(util::StrFormat("failure_%zu", i).c_str(), failed_checks[i]);
  }
  std::fputs(json.Render().c_str(), stdout);
  return failed_checks.empty() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  Options opt;
  opt.workload = flags.GetString("workload", "");
  opt.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const std::string mode = flags.GetString("mode", "plain");
  opt.fault = flags.GetString("fault", "none");
  flags.ValidateOrExit();
  opt.mode = mode == "traced" ? Mode::kTraced
             : mode == "setup" ? Mode::kSetup
                               : Mode::kPlain;
  const auto options = ResolveWorkload(opt.workload, opt.seed);
  if (!options || (mode != "plain" && mode != "traced" && mode != "setup") ||
      (opt.fault != "none" && opt.fault != "check" && opt.fault != "abort")) {
    std::fprintf(stderr,
                 "usage: phoenix_replay --workload=paper-15k|packed-powered|"
                 "lossy-sharded --seed=N [--mode=plain|traced|setup] "
                 "[--fault=none|check|abort]\n");
    return 1;
  }
  runner::SetExperimentThreads(1);
  return Replay(opt, *options);
}
