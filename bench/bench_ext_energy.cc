// Extension bench: the energy/latency trade under power-aware scheduling.
//
// The paper schedules a fixed, always-on fleet; datacenters pay for every
// idle watt. This sweep crosses the power policy (meter: always-on
// measurement baseline; dvfs: P-state throttling only; park: deep sleep
// only; all: both) with two load shapes — steady and diurnal (long
// half-duty swells that leave real idle troughs) — for Phoenix and Eagle-C
// at moderate load, so there is genuine idle capacity for the policies to
// harvest.
//
// Reported per cell: total joules, energy per completed task, the
// energy-delay product (joules x mean job response), short-job p90 queuing
// delay (the latency cost of sleeping capacity), park/wake/DVFS activity,
// and the fraction of machine-time spent in S3. The headline comparison is
// `park`/`all` vs `meter`: deep sleep should cut joules materially at a
// bounded short-job tail cost (wake latency, smaller awake fleet). `dvfs`
// is the free-lunch column: dispatch boosts throttled machines back to P0
// before work starts, so it thins *idle* draw at identical latency.
//
// The trace carries a balanced prod/batch/best-effort tenant mix and each
// cell additionally slices execution joules by SLA class — who the saved
// (or spent) energy actually served.
//
// `--json=PATH` additionally writes every cell as machine-readable JSON.
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "metrics/percentile.h"
#include "tenancy/config.h"

using namespace phoenix;

namespace {

struct Cell {
  std::string scheduler;
  std::string shape;
  std::string policy;
  double joules = 0;
  double joules_per_task = 0;
  double edp = 0;
  double short_p90 = 0;
  double sleep_fraction = 0;
  /// Mean execution joules, completed tasks, and joules-per-task per SLA
  /// class (prod / batch / best-effort).
  std::array<double, 3> class_joules{};
  std::array<std::uint64_t, 3> class_tasks{};
  std::array<double, 3> class_j_per_task{};
  metrics::SchedulerCounters counters;
  std::uint64_t events = 0;
  double wall = 0;
};

/// The tenancy bench's standing three-class tenant set, minus preemption —
/// here tenancy exists to attribute energy, not to reshuffle queues.
tenancy::TenancyConfig MakeSlaTenants() {
  tenancy::TenancyConfig tc;
  tc.tenants.push_back({"prod", tenancy::PriorityClass::kProd,
                        /*quota_share=*/0.5, /*crv_share=*/0.0,
                        /*slo_target=*/60.0});
  tc.tenants.push_back({"batch", tenancy::PriorityClass::kBatch,
                        /*quota_share=*/0.4, /*crv_share=*/0.6,
                        /*slo_target=*/0.0});
  tc.tenants.push_back({"scavenger", tenancy::PriorityClass::kBestEffort,
                        /*quota_share=*/0.0, /*crv_share=*/0.0,
                        /*slo_target=*/0.0});
  return tc;
}

power::PowerConfig MakePower(const std::string& policy) {
  power::PowerConfig pc;
  pc.enabled = true;
  pc.policy.park = policy == "park" || policy == "all";
  pc.policy.dvfs = policy == "dvfs" || policy == "all";
  return pc;
}

std::uint64_t DvfsSteps(const metrics::SchedulerCounters& k) {
  return k.power_dvfs_raises + k.power_dvfs_lowers;
}

bench::JsonEmitter MakeEmitter(const bench::BenchOptions& o,
                               const std::vector<Cell>& cells) {
  using Policy = power::PowerPolicy;
  bench::JsonEmitter emitter(
      "ext_energy",
      "energy- and power-aware scheduling (S3 deep park, DVFS, wake-aware "
      "supply) vs the always-on fleet");
  emitter.AddCommonConfig(o);
  emitter.config()
      .Add("park_idle_after_s", Policy::park_idle_after)
      .Add("min_active_fraction", Policy::min_active_fraction)
      .Add("target_wait_s", Policy::target_wait)
      .Add("wake_wait_factor", Policy::wake_wait_factor)
      .Add("parked_supply_weight", Policy::parked_supply_weight)
      .Add("sla_mix", "balanced");
  static const char* kClassKeys[3] = {"prod", "batch", "best_effort"};
  for (const Cell& c : cells) {
    auto& cell = emitter.NewCell();
    cell.Add("scheduler", c.scheduler)
        .Add("shape", c.shape)
        .Add("policy", c.policy)
        .Add("joules", c.joules)
        .Add("joules_per_task", c.joules_per_task)
        .Add("energy_delay_product", c.edp)
        .Add("short_p90_queuing_s", c.short_p90)
        .Add("sleep_fraction", c.sleep_fraction);
    for (std::size_t k = 0; k < 3; ++k) {
      cell.Add(util::StrFormat("exec_joules_%s", kClassKeys[k]).c_str(),
               c.class_joules[k])
          .Add(util::StrFormat("exec_joules_per_task_%s",
                               kClassKeys[k]).c_str(),
               c.class_j_per_task[k]);
    }
    cell.AddInt("parks", c.counters.power_parks)
        .AddInt("wakes", c.counters.power_wakes)
        .AddInt("dvfs_steps", DvfsSteps(c.counters))
        .AddInt("park_vetoes", c.counters.power_park_vetoes_coverage +
                                   c.counters.power_park_vetoes_floor);
    bench::AddThroughput(cell, c.events, c.wall);
  }
  return emitter;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const std::string json_path = flags.GetString("json", "");
  auto o = bench::ParseBenchOptions(flags, 96, 2,
                                    {"trace-google", "shape", "power",
                                     "power-policy"});
  // The interesting regime is moderate load: a fleet sized for its peaks
  // has troughs worth sleeping through. --load still overrides.
  if (!flags.Provided("load")) o.load = 0.40;
  bench::PrintHeader("Extension: energy-aware scheduling", o,
                     "beyond-paper: the paper's fleets are always-on");

  const std::vector<trace::LoadShapePreset> shapes = {
      trace::ShapeByName("steady"),
      trace::ShapeByName("diurnal"),
  };
  const std::vector<std::string> policies = {"meter", "dvfs", "park", "all"};

  const auto cluster = bench::MakeCluster(o.nodes, o.seed);

  std::vector<Cell> cells;
  for (const std::string sched : {"phoenix", "eagle-c"}) {
    std::printf("--- %s ---\n", sched.c_str());
    util::TextTable t({"shape", "policy", "joules", "J/task", "prod J/task",
                       "EDP", "short p90 qdelay", "sleep frac", "parks",
                       "wakes", "dvfs"});
    for (const trace::LoadShapePreset& shape : shapes) {
      const auto trace =
          bench::MakeTrace("google", o, [&](trace::GeneratorOptions& gen) {
            trace::ApplyLoadShape(shape, gen);
            gen.tenant_weights = {1.0, 1.0, 1.0};
          });
      for (const std::string& policy : policies) {
        runner::RunOptions ro = bench::CellOptions(
            o, sched, sched + "-" + shape.name + "-" + policy);
        ro.config.tenancy = MakeSlaTenants();
        ro.power = MakePower(policy);
        const runner::RepeatedRuns runs(trace, cluster, ro, o.runs);
        Cell c;
        c.scheduler = sched;
        c.shape = shape.name;
        c.policy = policy;
        c.short_p90 = runs.MeanQueuingPercentile(
            90, metrics::ClassFilter::kShort, metrics::ConstraintFilter::kAll);
        double sleep_frac_sum = 0;
        for (const auto& r : runs.reports()) {
          c.joules += r.total_joules;
          c.joules_per_task += r.energy_per_task;
          c.edp += r.energy_delay_product;
          for (std::size_t k = 0; k < 3; ++k) {
            c.class_joules[k] += r.class_exec_joules[k];
            c.class_tasks[k] += r.class_tasks[k];
          }
          sleep_frac_sum +=
              r.makespan > 0
                  ? r.sleep_machine_seconds /
                        (static_cast<double>(r.num_workers) * r.makespan)
                  : 0;
          c.events += r.events_fired;
          c.wall += r.sim_wall_seconds;
        }
        const auto n = static_cast<double>(runs.reports().size());
        c.joules /= n;
        c.joules_per_task /= n;
        c.edp /= n;
        for (std::size_t k = 0; k < 3; ++k) {
          // Ratio over the summed runs first, then reduce joules to a mean.
          c.class_j_per_task[k] =
              c.class_tasks[k] > 0
                  ? c.class_joules[k] / static_cast<double>(c.class_tasks[k])
                  : 0.0;
          c.class_joules[k] /= n;
        }
        c.sleep_fraction = sleep_frac_sum / n;
        c.counters = runner::AggregateCounters(runs.reports());
        const double prod_j_per_task = c.class_j_per_task[0];
        cells.push_back(c);
        const std::uint64_t parks = c.counters.power_parks;
        const std::uint64_t wakes = c.counters.power_wakes;
        const std::uint64_t dvfs_steps = DvfsSteps(c.counters);
        t.AddRow({shape.name, policy, util::StrFormat("%.3g", c.joules),
                  util::StrFormat("%.1f", c.joules_per_task),
                  util::StrFormat("%.1f", prod_j_per_task),
                  util::StrFormat("%.3g", c.edp),
                  util::HumanDuration(c.short_p90),
                  util::StrFormat("%.1f%%", 100 * c.sleep_fraction),
                  util::WithCommas(static_cast<std::int64_t>(parks)),
                  util::WithCommas(static_cast<std::int64_t>(wakes)),
                  util::WithCommas(static_cast<std::int64_t>(dvfs_steps))});
      }
    }
    std::printf("%s\n", t.ToString().c_str());
  }
  if (!json_path.empty() && !MakeEmitter(o, cells).WriteTo(json_path)) {
    return 1;
  }
  std::printf(
      "expected shape: `park` and `all` cut joules materially below the "
      "always-on `meter` baseline at a bounded short-job p90 cost (roughly "
      "one S3 wake latency); `dvfs` trims idle draw at identical latency — "
      "dispatch boosts a throttled machine back to P0 before work starts\n");
  return 0;
}
