// Extension bench: multi-tenant SLO scheduling (src/tenancy).
//
// The paper's evaluation is single-tenant; production constrained clusters
// are shared. This sweep runs three tenants — prod (quota + short-job SLO),
// batch (quota + CRV-share cap), best-effort (scavenger) — over the Google
// profile, crossing tenant mix skew (balanced vs prod-heavy) with the
// preemption policy (on/off) for Phoenix and Eagle-C.
//
// Reported per cell: per-class p90 queuing delay (does preemption actually
// buy prod latency, and what does best-effort pay), prod SLO attainment,
// admission outcomes (downgrades / quota rejects), preemption counts with
// the starvation-guard / cap blocks, and the Jain fairness index over
// quota-normalized tenant usage.
//
// `--json=PATH` additionally writes every cell as machine-readable JSON
// (committed as BENCH_tenancy.json).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "metrics/report.h"
#include "tenancy/config.h"

using namespace phoenix;

namespace {

struct Mix {
  const char* name;
  std::vector<double> weights;  // prod, batch, best-effort
};

struct Cell {
  std::string scheduler;
  std::string mix;
  bool preemption = false;
  double prod_p90 = 0;
  double batch_p90 = 0;
  double be_p90 = 0;
  double slo_attainment = 0;
  double jain = 0;
  metrics::SchedulerCounters counters;
  std::uint64_t events = 0;
  double wall = 0;
};

/// The prod tenant's short-job SLO target, seconds.
constexpr double kProdSloTarget = 60.0;

tenancy::TenancyConfig MakeTenants(bool preemption) {
  tenancy::TenancyConfig tc;
  tc.preemption = preemption;
  tc.tenants.push_back({"prod", tenancy::PriorityClass::kProd,
                        /*quota_share=*/0.5, /*crv_share=*/0.0,
                        kProdSloTarget});
  tc.tenants.push_back({"batch", tenancy::PriorityClass::kBatch,
                        /*quota_share=*/0.4, /*crv_share=*/0.6,
                        /*slo_target=*/0.0});
  tc.tenants.push_back({"scavenger", tenancy::PriorityClass::kBestEffort,
                        /*quota_share=*/0.0, /*crv_share=*/0.0,
                        /*slo_target=*/0.0});
  return tc;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const std::string json_path = flags.GetString("json", "");
  auto o = bench::ParseBenchOptions(flags, 120, 2, {"trace-google"});
  bench::PrintHeader("Extension: multi-tenant SLO scheduling", o,
                     "beyond-paper: the paper's clusters are single-tenant");
  std::printf("tenants: prod (quota 50%%, SLO %gs) / batch (quota 40%%, CRV "
              "share 60%%) / scavenger (best-effort)\n\n",
              kProdSloTarget);

  const std::vector<Mix> mixes = {
      {"balanced", {1.0, 1.0, 1.0}},
      {"prod-heavy", {3.0, 1.0, 1.0}},
  };

  const auto cluster = bench::MakeCluster(o.nodes, o.seed);
  std::vector<Cell> cells;
  for (const std::string sched : {"phoenix", "eagle-c"}) {
    std::printf("--- %s ---\n", sched.c_str());
    util::TextTable t({"mix", "preempt", "prod p90", "batch p90", "b-e p90",
                       "SLO att.", "preempts", "guard/cap", "downgrades",
                       "rejects", "jain"});
    for (const Mix& mix : mixes) {
      const auto trace =
          bench::MakeTrace("google", o, [&](trace::GeneratorOptions& gen) {
            gen.tenant_weights = mix.weights;
          });
      for (const bool preemption : {false, true}) {
        runner::RunOptions ro = bench::CellOptions(
            o, sched,
            sched + "-" + mix.name + (preemption ? "-preempt" : ""));
        ro.config.tenancy = MakeTenants(preemption);
        const runner::RepeatedRuns runs(trace, cluster, ro, o.runs);
        Cell c;
        c.scheduler = sched;
        c.mix = mix.name;
        c.preemption = preemption;
        c.counters = runner::AggregateCounters(runs.reports());
        const std::size_t n = runs.reports().size();
        std::uint64_t slo_jobs = 0;
        std::uint64_t slo_attained = 0;
        for (const auto& r : runs.reports()) {
          c.prod_p90 += r.tenants[0].p90_queuing / static_cast<double>(n);
          c.batch_p90 += r.tenants[1].p90_queuing / static_cast<double>(n);
          c.be_p90 += r.tenants[2].p90_queuing / static_cast<double>(n);
          c.jain += r.tenant_fairness_jain / static_cast<double>(n);
          slo_jobs += r.tenants[0].slo_jobs;
          slo_attained += r.tenants[0].slo_attained;
          c.events += r.events_fired;
          c.wall += r.sim_wall_seconds;
        }
        c.slo_attainment = slo_jobs == 0 ? 1.0
                                         : static_cast<double>(slo_attained) /
                                               static_cast<double>(slo_jobs);
        cells.push_back(c);
        t.AddRow({mix.name, preemption ? "on" : "off",
                  util::HumanDuration(c.prod_p90),
                  util::HumanDuration(c.batch_p90),
                  util::HumanDuration(c.be_p90),
                  util::StrFormat("%.1f%%", 100 * c.slo_attainment),
                  util::WithCommas(static_cast<std::int64_t>(
                      c.counters.preemptions_issued)),
                  util::StrFormat(
                      "%llu/%llu",
                      static_cast<unsigned long long>(
                          c.counters.preemptions_blocked_guard),
                      static_cast<unsigned long long>(
                          c.counters.preemptions_blocked_cap)),
                  util::WithCommas(static_cast<std::int64_t>(
                      c.counters.tenant_downgrades)),
                  util::WithCommas(
                      static_cast<std::int64_t>(c.counters.tenant_rejects)),
                  util::StrFormat("%.3f", c.jain)});
      }
    }
    std::printf("%s\n", t.ToString().c_str());
  }

  if (!json_path.empty()) {
    bench::JsonEmitter emitter(
        "ext_tenancy",
        "multi-tenant SLO scheduling: priority classes, quota admission, "
        "preemption (tenant mix skew x preemption policy x scheduler)");
    emitter.AddCommonConfig(o);
    emitter.config().Add("slo_target_s", kProdSloTarget);
    for (const Cell& c : cells) {
      auto& cell = emitter.NewCell();
      cell.Add("scheduler", c.scheduler)
          .Add("mix", c.mix)
          .Add("preemption", c.preemption)
          .Add("prod_p90_queuing_s", c.prod_p90)
          .Add("batch_p90_queuing_s", c.batch_p90)
          .Add("best_effort_p90_queuing_s", c.be_p90)
          .Add("prod_slo_attainment", c.slo_attainment)
          .Add("tenant_fairness_jain", c.jain)
          .AddInt("preemptions_issued", c.counters.preemptions_issued)
          .AddInt("preemption_requeues", c.counters.preemption_requeues)
          .AddInt("blocked_by_slack_guard",
                  c.counters.preemptions_blocked_guard)
          .AddInt("blocked_by_cap", c.counters.preemptions_blocked_cap)
          .AddInt("priority_promotions",
                  c.counters.tenant_priority_promotions)
          .AddInt("downgrades", c.counters.tenant_downgrades)
          .AddInt("rejects", c.counters.tenant_rejects)
          .Add("restart_cost_s", c.counters.preemption_restart_seconds)
          .Add("lost_service_s", c.counters.preemption_lost_seconds);
      bench::AddThroughput(cell, c.events, c.wall);
    }
    if (!emitter.WriteTo(json_path)) return 1;
  }
  std::printf(
      "measured shape: preemption lifts prod SLO attainment (short prod "
      "jobs jump ahead of running best-effort work) but kill-and-requeue "
      "re-executes the victim's elapsed service, so at high load the lost "
      "work inflates queuing tails across classes; the starvation guard "
      "and per-task cap absorb most attempts; quota rejects rise with the "
      "prod-heavy mix\n");
  return 0;
}
