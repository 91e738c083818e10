// Extension bench: elastic cluster lifecycle under shaped load.
//
// The paper evaluates Phoenix on a fixed fleet; real heterogeneous
// datacenters grow and shrink. This sweep runs the elasticity controller
// (src/elastic) over two load shapes — bursty (short intense episodes) and
// diurnal (long half-duty swells) — crossed with transient-pool reclamation
// pressure, for Phoenix and the comparison schedulers. The base fleet is
// sized to the trace load; the reserve pool absorbs reactive scale-ups and
// the transient pool supplies cheap-but-revocable capacity that drains and
// redispatches work when reclaimed.
//
// Reported per cell: short-job p90 queuing delay, measured utilization over
// delivered machine-seconds (the in-service integral, not the static
// universe), and the lifecycle counters — commissions, drains, reclamations,
// forced-retire redispatches, and warm-up seconds wasted on leases that
// never started a task.
//
// `--json=PATH` additionally writes every cell as machine-readable JSON.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "elastic/config.h"
#include "metrics/percentile.h"

using namespace phoenix;

namespace {

struct Cell {
  std::string scheduler;
  std::string shape;
  double reclaim_rate = 0;
  double short_p90 = 0;
  double utilization = 0;
  metrics::SchedulerCounters counters;
  std::uint64_t events = 0;
  double wall = 0;
};

bench::JsonEmitter MakeEmitter(const bench::BenchOptions& o,
                               const elastic::ElasticConfig& elastic,
                               const std::vector<Cell>& cells) {
  bench::JsonEmitter emitter(
      "ext_elasticity",
      "elastic cluster lifecycle (reactive + CRV-shaped scaling, transient "
      "reclamation)");
  emitter.AddCommonConfig(o);
  emitter.config()
      .AddInt("reserve", elastic.reserve_machines)
      .AddInt("transient", elastic.transient_machines)
      .Add("warmup_delay_s", elastic.warmup_delay)
      .Add("drain_grace_s", elastic.drain_grace)
      .Add("reclaim_grace_s", elastic.reclaim_grace);
  for (const Cell& c : cells) {
    auto& cell = emitter.NewCell();
    cell.Add("scheduler", c.scheduler)
        .Add("shape", c.shape)
        .Add("reclaim_rate_per_s", c.reclaim_rate)
        .Add("short_p90_queuing_s", c.short_p90)
        .Add("utilization", c.utilization)
        .AddInt("commissions", c.counters.elastic_commissions)
        .AddInt("drains", c.counters.elastic_drains)
        .AddInt("reclamations", c.counters.elastic_reclamations)
        .AddInt("forced_retires", c.counters.elastic_retires_forced)
        .AddInt("tasks_redispatched", c.counters.elastic_tasks_redispatched)
        .AddInt("crv_shaped_picks", c.counters.elastic_crv_shaped_picks)
        .Add("wasted_warmup_s", c.counters.elastic_wasted_warmup_seconds);
    bench::AddThroughput(cell, c.events, c.wall);
  }
  return emitter;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const std::string json_path = flags.GetString("json", "");
  auto o = bench::ParseBenchOptions(flags, 120, 2, {"trace-google", "shape"});
  // The universe: the --nodes base fleet, a reserve pool of half of it and a
  // transient pool of a quarter, every lease kept open; the controller's
  // timings and wait target are ElasticConfig's defaults.
  elastic::ElasticConfig elastic;
  elastic.enabled = true;
  elastic.base_machines = o.nodes;
  elastic.reserve_machines = o.nodes / 2;
  elastic.transient_machines = o.nodes / 4;
  elastic.transient_target = elastic.transient_machines;
  bench::PrintHeader("Extension: elastic lifecycle under shaped load", o,
                     "beyond-paper: the paper's fleets are fixed-size");
  std::printf("universe: base=%zu reserve=%zu transient=%zu (warmup=%gs, "
              "drain grace=%gs, reclaim grace=%gs)\n\n",
              o.nodes, elastic.reserve_machines, elastic.transient_machines,
              elastic.warmup_delay, elastic.drain_grace,
              elastic.reclaim_grace);

  // Two shaped variants of the Google profile, from the shared preset table
  // (src/trace/generators.h). Flash-crowd: rare, intense, minute-scale
  // episodes that outrun the warm-up delay. Diurnal: a gentle half-duty
  // swell slow enough for reactive scaling to track.
  const std::vector<trace::LoadShapePreset> shapes = {
      trace::ShapeByName("flash-crowd"),
      trace::ShapeByName("diurnal"),
  };
  // Mean transient lease lifetimes of infinity, 20 min, 5 min.
  const std::vector<double> reclaim_rates = {0.0, 1.0 / 1200.0, 1.0 / 300.0};

  const auto cluster = bench::MakeCluster(elastic.universe_size(), o.seed);

  std::vector<Cell> cells;
  for (const std::string sched : {"phoenix", "eagle-c", "hawk-c"}) {
    std::printf("--- %s ---\n", sched.c_str());
    util::TextTable t({"shape", "reclaim", "short p90 qdelay", "util",
                       "commissions", "drains", "reclaims", "forced",
                       "redisp", "crv picks", "wasted warmup"});
    for (const trace::LoadShapePreset& shape : shapes) {
      const auto trace =
          bench::MakeTrace("google", o, [&](trace::GeneratorOptions& gen) {
            trace::ApplyLoadShape(shape, gen);
          });
      for (const double rate : reclaim_rates) {
        runner::RunOptions ro = bench::CellOptions(
            o, sched,
            sched + "-" + shape.name + "-reclaim" +
                (rate > 0 ? util::StrFormat("%.0f", 1.0 / rate) : "off"));
        ro.elastic = elastic;
        ro.elastic.reclaim_rate = rate;
        const runner::RepeatedRuns runs(trace, cluster, ro, o.runs);
        const double p90 = runs.MeanQueuingPercentile(
            90, metrics::ClassFilter::kShort, metrics::ConstraintFilter::kAll);
        const double util = runs.MeanUtilization();
        Cell c;
        c.scheduler = sched;
        c.shape = shape.name;
        c.reclaim_rate = rate;
        c.short_p90 = p90;
        c.utilization = util;
        c.counters = runner::AggregateCounters(runs.reports());
        for (const auto& r : runs.reports()) {
          c.events += r.events_fired;
          c.wall += r.sim_wall_seconds;
        }
        cells.push_back(c);
        const metrics::SchedulerCounters& k = c.counters;
        t.AddRow(
            {shape.name,
             rate > 0 ? util::StrFormat("1/%.0fs", 1.0 / rate) : "off",
             util::HumanDuration(p90), util::StrFormat("%.1f%%", 100 * util),
             util::WithCommas(static_cast<std::int64_t>(k.elastic_commissions)),
             util::WithCommas(static_cast<std::int64_t>(k.elastic_drains)),
             util::WithCommas(
                 static_cast<std::int64_t>(k.elastic_reclamations)),
             util::WithCommas(
                 static_cast<std::int64_t>(k.elastic_retires_forced)),
             util::WithCommas(
                 static_cast<std::int64_t>(k.elastic_tasks_redispatched)),
             util::WithCommas(
                 static_cast<std::int64_t>(k.elastic_crv_shaped_picks)),
             util::StrFormat("%.0fs", k.elastic_wasted_warmup_seconds)});
      }
    }
    std::printf("%s\n", t.ToString().c_str());
  }
  if (!json_path.empty() &&
      !MakeEmitter(o, elastic, cells).WriteTo(json_path)) {
    return 1;
  }
  std::printf(
      "expected shape: reclamation pressure costs tail latency (forced "
      "retires redispatch in-flight work) but never loses jobs; Phoenix's "
      "CRV-shaped scale-ups keep constrained demand supplied where the "
      "baselines pick capacity blindly\n");
  return 0;
}
