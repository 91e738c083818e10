// Extension bench: multi-resource vector packing, gang tasks, and
// malleable jobs (src/packing).
//
// The paper's worker owns one execution slot; real heterogeneous fleets
// place tasks against multi-dimensional capacity (cores, memory, GPU) and
// run several at once. This sweep enables the packing subsystem and crosses
// four workload mixes — plain (every job rigid, no co-scheduling), gang
// (15 % of multi-task jobs start all-or-nothing), malleable (15 % shrink /
// expand width with supply), and mixed (both) — for Phoenix and Eagle-C.
//
// Reported per cell: packing efficiency (demand-weighted core-seconds over
// fleet core capacity x makespan — the packed analogue of utilization),
// the time-average fragmentation (free-core fraction stranded on partially
// busy machines), mean gang wait (arrival -> reservation commit), short-job
// p90 queuing delay, and the packing counters (packed starts, fit
// rejections, gang commit/abort/retry traffic, malleable width churn).
//
// `--json=PATH` additionally writes every cell as machine-readable JSON
// (committed as BENCH_packing.json).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "metrics/percentile.h"

using namespace phoenix;

namespace {

struct Mix {
  const char* name;
  double gang_fraction;
  double malleable_fraction;
};

struct Cell {
  std::string scheduler;
  std::string mix;
  double packing_efficiency = 0;
  double fragmentation = 0;
  double gang_wait = 0;
  double short_p90 = 0;
  metrics::SchedulerCounters counters;
  std::uint64_t events = 0;
  double wall = 0;
};

bench::JsonEmitter MakeEmitter(const bench::BenchOptions& o,
                               const std::vector<Cell>& cells) {
  bench::JsonEmitter emitter(
      "ext_packing",
      "multi-resource vector packing: multi-slot machines, gang tasks, and "
      "malleable jobs (workload mix x scheduler)");
  emitter.AddCommonConfig(o);
  emitter.config()
      .Add("audit", o.obs.audit)
      .Add("frag_weight", o.packing.frag_weight)
      .Add("gang_hold_s", o.packing.gang_hold)
      .Add("malleable_min_frac", o.packing.malleable_min_frac);
  for (const Cell& c : cells) {
    auto& cell = emitter.NewCell();
    cell.Add("scheduler", c.scheduler)
        .Add("mix", c.mix)
        .Add("packing_efficiency", c.packing_efficiency)
        .Add("fragmentation_time_avg", c.fragmentation)
        .Add("gang_wait_mean_s", c.gang_wait)
        .Add("short_p90_queuing_s", c.short_p90);
    bench::AddCounters(cell, c.counters, metrics::CounterGroup::kPacking);
    bench::AddThroughput(cell, c.events, c.wall);
  }
  return emitter;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const std::string json_path = flags.GetString("json", "");
  // This bench exists to exercise the subsystem: packing is always on here,
  // and each mix sets its own gang/malleable fractions.
  auto o = bench::ParseBenchOptions(
      flags, 96, 2, {"packing", "gang-fraction", "malleable-fraction"});
  o.packing.enabled = true;
  bench::PrintHeader("Extension: multi-resource vector packing", o,
                     "beyond-paper: the paper's workers are single-slot");
  std::printf("demand: hashed per job (cores/memory/GPU); gang hold=%gs, "
              "malleable floor=%.0f%% of tasks\n\n",
              o.packing.gang_hold, 100 * o.packing.malleable_min_frac);

  const std::vector<Mix> mixes = {
      {"plain", 0.0, 0.0},
      {"gang", 0.15, 0.0},
      {"malleable", 0.0, 0.15},
      {"mixed", 0.15, 0.15},
  };

  const auto cluster = bench::MakeCluster(o.nodes, o.seed);

  std::vector<Cell> cells;
  for (const std::string sched : {"phoenix", "eagle-c"}) {
    std::printf("--- %s ---\n", sched.c_str());
    util::TextTable t({"mix", "pack eff", "frag", "gang wait",
                       "short p90 qdelay", "packed", "fit rej",
                       "commits/aborts", "expands/shrinks"});
    for (const Mix& mix : mixes) {
      auto po = o;
      po.packing.gang_fraction = mix.gang_fraction;
      po.packing.malleable_fraction = mix.malleable_fraction;
      const auto trace = bench::MakeTrace("google", po);
      const auto runs =
          bench::Run(sched, trace, cluster, po, sched + "-" + mix.name);
      Cell c;
      c.scheduler = sched;
      c.mix = mix.name;
      c.counters = runner::AggregateCounters(runs.reports());
      c.short_p90 = runs.MeanQueuingPercentile(
          90, metrics::ClassFilter::kShort, metrics::ConstraintFilter::kAll);
      for (const auto& r : runs.reports()) {
        c.packing_efficiency += r.packing_efficiency;
        c.fragmentation += r.fragmentation_time_avg;
        c.gang_wait += r.gang_wait_mean;
        c.events += r.events_fired;
        c.wall += r.sim_wall_seconds;
      }
      const auto n = static_cast<double>(runs.reports().size());
      c.packing_efficiency /= n;
      c.fragmentation /= n;
      c.gang_wait /= n;
      cells.push_back(c);
      t.AddRow(
          {mix.name, util::StrFormat("%.1f%%", 100 * c.packing_efficiency),
           util::StrFormat("%.1f%%", 100 * c.fragmentation),
           c.counters.gang_commits > 0 ? util::HumanDuration(c.gang_wait)
                                       : "-",
           util::HumanDuration(c.short_p90),
           util::WithCommas(
               static_cast<std::int64_t>(c.counters.packed_tasks)),
           util::WithCommas(
               static_cast<std::int64_t>(c.counters.pack_fit_rejections)),
           util::StrFormat(
               "%llu/%llu",
               static_cast<unsigned long long>(c.counters.gang_commits),
               static_cast<unsigned long long>(c.counters.gang_aborts)),
           util::StrFormat(
               "%llu/%llu",
               static_cast<unsigned long long>(c.counters.malleable_expands),
               static_cast<unsigned long long>(
                   c.counters.malleable_shrinks))});
    }
    std::printf("%s\n", t.ToString().c_str());
  }
  if (!json_path.empty() && !MakeEmitter(o, cells).WriteTo(json_path)) {
    return 1;
  }
  std::printf(
      "expected shape: packing lifts effective throughput well past the "
      "one-task-per-machine ceiling (several small tasks share a machine) "
      "at a bounded fragmentation cost; gangs pay their atomicity in wait "
      "(reserve -> commit) under contention; malleable jobs absorb supply "
      "swings by shrinking toward their width floor instead of queuing\n");
  return 0;
}
