// Shared plumbing for the per-table / per-figure bench harnesses.
//
// Every harness accepts:
//   --nodes=N   base fleet size the trace load is calibrated to
//   --jobs=N    jobs in the synthesized trace  (default: 50 x nodes)
//   --load=F    target offered utilization at the base fleet (default 0.85)
//   --seed=N    master seed
//   --runs=N    seeds averaged per data point (paper uses 5)
//   --threads=N experiment thread budget (default: hardware concurrency;
//               1 runs fully serial). Results are bit-identical either way.
//   --paper     full-scale mode: the paper's 15,000/5,000-node fleets
//
// Observability (see EXPERIMENTS.md "Tracing and auditing"):
//   --trace-out=F    Chrome trace_event JSON (chrome://tracing / Perfetto)
//   --trace-jsonl=F  newline-delimited JSON event stream
//   --timeseries=F   per-heartbeat worker TSV (+ F.crv for Phoenix runs)
//   --audit          run the invariant auditor; abort on any violation
// A bench running more than one cell writes one file set per cell, tagged
// before the extension ("t.jsonl" -> "t.phoenix-n40.jsonl"); multi-seed
// runs add ".seed<N>".
//
// Control-plane fabric (see EXPERIMENTS.md "The network fabric"):
//   --net-model=M    constant | uniform | lognormal | empirical
//   --net-latency=S  one-way scheduler<->worker delay in seconds
//   --net-jitter=F   uniform model: +/- fraction of the nominal delay
//   --net-sigma=F    lognormal model: sigma of the delay multiplier
//   --net-drop=F     P(message silently dropped), per copy
//   --net-dup=F      P(message duplicated in flight)
//   --net-reorder=F  P(message held back past later traffic)
//   --rpc-retries=N  max retries before a call fails over
//
// Sharded control plane (see EXPERIMENTS.md "Federation"):
//   --shards=N        scheduler shards; 1 (default) never constructs the
//                     plane and is byte-identical to the unsharded run
//   --gossip-period=S digest exchange period per shard
//   --stale-bound=S   peer digests older than this drop out of global views
//
// Power management (see EXPERIMENTS.md "Energy"):
//   --power                 attach the power model + controller; without it
//                           no power code runs and output is byte-identical
//   --power-policy=P        meter | dvfs | park | all (default all)
//
// Multi-resource packing (see EXPERIMENTS.md "Packing"):
//   --packing               multi-dimensional capacity/demand vectors and
//                           multi-slot machines; without it the single-slot
//                           model runs and output is byte-identical
//   --gang-fraction=F       fraction of multi-task jobs tagged gang
//                           (all-or-nothing multi-machine start)
//   --gang-hold=S           reservation hold before a gang round aborts
//   --frag-weight=W         fragmentation penalty weight in the pack score
//   --malleable-fraction=F  fraction of multi-task jobs tagged malleable
//   --malleable-min-frac=F  malleable width floor as a fraction of tasks
//
// DAG workflows and deadlines (see EXPERIMENTS.md "DAG workloads"):
//   --dag             honor precedence edges: only ready tasks dispatch,
//                     completions release successors in critical-path
//                     order; off, jobs with deps run as flat tasks and
//                     output is byte-identical
//   --deadline        SLA-class deadlines + EDF tie-break in the worker
//                     queues; per-class attainment lands in the report
//   --dag-shape=S     chain | fanout | diamond edges overlaid on
//                     kDagFraction (30%) of the multi-task jobs
//
// Workload frontends:
//   --shape=S         steady | diurnal | flash-crowd arrival shape applied
//                     on top of the profile's MMPP parameters
//   --trace-google=F  replay a Google cluster-trace v2 task_events CSV
//                     instead of the synthetic generator
// Defaults are the ideal fabric (constant latency, no loss): bit-identical
// to the pre-fabric simulator.
//
// Scaled defaults preserve the queueing behaviour (the sweeps vary the same
// utilization axis) while finishing in seconds on one core.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/builder.h"
#include "federation/config.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "packing/config.h"
#include "power/config.h"
#include "runner/experiment.h"
#include "runner/parallel.h"
#include "trace/generators.h"
#include "trace/google_reader.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/format.h"
#include "workflow/config.h"
#include "workflow/shapes.h"

namespace phoenix::bench {

/// Fraction of multi-task jobs MakeTrace tags with DAG edges under --dag.
inline constexpr double kDagFraction = 0.3;

struct BenchOptions {
  std::size_t nodes = 300;
  std::size_t jobs = 15000;
  double load = 0.85;
  std::uint64_t seed = 42;
  std::size_t runs = 1;
  /// Experiment thread budget; 0 means hardware concurrency.
  std::size_t threads = 0;
  bool paper = false;
  /// Observability outputs applied to every simulation the bench runs.
  runner::ObsOptions obs;
  /// Control-plane fabric and RPC policy applied to every simulation.
  net::FabricConfig net;
  net::RpcConfig rpc;
  /// Sharded control plane; shards == 1 keeps the plane off.
  federation::FederationConfig federation;
  /// Power management; disabled (the default) never constructs it.
  power::PowerConfig power;
  /// Multi-resource packing; disabled (the default) keeps the single-slot
  /// worker model. The gang/malleable fractions also drive trace tagging
  /// (MakeTrace threads them into the generator).
  packing::PackingConfig packing;
  /// DAG workflows and deadline scheduling; both gates off (the default)
  /// never enters a workflow branch and output is byte-identical.
  workflow::WorkflowConfig workflow;
  /// DAG edge overlay MakeTrace applies when the dag gate is on.
  std::string dag_shape = "chain";
  /// Arrival shape applied on top of the profile ("" keeps its MMPP mix).
  std::string shape;
  /// Google cluster-trace v2 CSV replayed instead of the generator.
  std::string trace_google;
};

/// The fleet of the yahoo cells: a third of --nodes (at least 8), as the
/// paper runs the Yahoo trace on 5,000 machines against 15,000.
inline std::size_t YahooNodes(std::size_t nodes) {
  return std::max<std::size_t>(nodes / 3, 8);
}

/// What a bench builds besides one --nodes fleet, for the checks that
/// depend on it: the fleet of its other-sized cells as a function of
/// --nodes (null: none), and the most shards a cell runs whatever --shards
/// says (0: none beyond --shards).
struct BenchFleet {
  std::size_t (*cell_nodes)(std::size_t nodes) = nullptr;
  std::uint32_t cell_shards = 0;
};

/// Parses the common flags. Bad input is a usage error, never an abort deep
/// in a constructor: every problem is collected, each naming its flag, and
/// the parse exits 1 once listing all of them (the constructors keep their
/// checks as internal asserts that a parsed config never trips). `swept`
/// names the common flags the bench's own sweep sets in every cell; giving
/// one is a problem too, since the sweep would silently override it.
/// `fleet` describes the smaller fleets and fixed shard counts of the
/// bench's cells, which every shard count must fit.
inline BenchOptions ParseBenchOptions(
    util::Flags& flags, std::size_t default_nodes = 300,
    std::size_t default_runs = 1,
    std::initializer_list<const char*> swept = {},
    const BenchFleet& fleet = {}) {
  std::vector<std::string> problems;
  const auto require = [&problems](bool ok, std::string problem) {
    if (!ok) problems.push_back(std::move(problem));
  };
  BenchOptions o;
  o.paper = flags.GetBool("paper", false);
  const std::int64_t nodes =
      flags.GetInt("nodes", static_cast<std::int64_t>(default_nodes));
  require(nodes >= 1, util::StrFormat("--nodes must be >= 1 (got %lld)",
                                      static_cast<long long>(nodes)));
  o.nodes = static_cast<std::size_t>(std::max<std::int64_t>(nodes, 1));
  if (o.paper && !flags.Provided("nodes")) o.nodes = 15000;
  const std::int64_t jobs =
      flags.GetInt("jobs", static_cast<std::int64_t>(50 * o.nodes));
  require(jobs >= 1, util::StrFormat("--jobs must be >= 1 (got %lld)",
                                     static_cast<long long>(jobs)));
  o.jobs = static_cast<std::size_t>(std::max<std::int64_t>(jobs, 1));
  o.load = flags.GetDouble("load", 0.85);
  // The trace generator calibrates arrivals to this offered load.
  require(o.load > 0 && o.load < 1.5,
          util::StrFormat("--load must be in (0, 1.5) (got %g)", o.load));
  o.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  o.runs = static_cast<std::size_t>(
      flags.GetInt("runs", static_cast<std::int64_t>(default_runs)));
  o.threads = static_cast<std::size_t>(flags.GetInt("threads", 0));
  o.obs.trace_chrome = flags.GetString("trace-out", "");
  o.obs.trace_jsonl = flags.GetString("trace-jsonl", "");
  o.obs.timeseries_tsv = flags.GetString("timeseries", "");
  o.obs.audit = flags.GetBool("audit", false);
  const std::string model = flags.GetString("net-model", "constant");
  if (model == "constant") {
    o.net.model = net::LatencyModel::kConstant;
  } else if (model == "uniform") {
    o.net.model = net::LatencyModel::kUniform;
  } else if (model == "lognormal") {
    o.net.model = net::LatencyModel::kLognormal;
  } else if (model == "empirical") {
    o.net.model = net::LatencyModel::kEmpirical;
  } else {
    require(false, "--net-model must be constant|uniform|lognormal|empirical "
                   "(got \"" + model + "\")");
  }
  o.net.one_way = flags.GetDouble("net-latency", o.net.one_way);
  o.net.jitter = flags.GetDouble("net-jitter", o.net.jitter);
  o.net.sigma = flags.GetDouble("net-sigma", o.net.sigma);
  o.net.drop_rate = flags.GetDouble("net-drop", 0.0);
  o.net.duplicate_rate = flags.GetDouble("net-dup", 0.0);
  o.net.reorder_rate = flags.GetDouble("net-reorder", 0.0);
  o.rpc.max_retries = static_cast<std::size_t>(flags.GetInt(
      "rpc-retries", static_cast<std::int64_t>(o.rpc.max_retries)));
  for (const auto& [name, value] :
       {std::pair{"--net-drop", o.net.drop_rate},
        std::pair{"--net-dup", o.net.duplicate_rate},
        std::pair{"--net-reorder", o.net.reorder_rate},
        std::pair{"--net-jitter", o.net.jitter}}) {
    require(value >= 0 && value < 1,
            util::StrFormat("%s must be in [0, 1) (got %g)", name, value));
  }
  require(o.net.one_way > 0, "--net-latency must be positive");
  o.federation.shards = static_cast<std::uint32_t>(flags.GetInt(
      "shards", static_cast<std::int64_t>(o.federation.shards)));
  o.federation.gossip_period =
      flags.GetDouble("gossip-period", o.federation.gossip_period);
  o.federation.staleness_bound =
      flags.GetDouble("stale-bound", o.federation.staleness_bound);
  require(o.federation.shards >= 1, "--shards must be >= 1");
  // Every shard needs a machine, in the smallest fleet a cell runs too.
  const std::size_t smallest =
      fleet.cell_nodes != nullptr
          ? std::min(o.nodes, fleet.cell_nodes(o.nodes))
          : o.nodes;
  if (o.federation.shards > o.nodes) {
    problems.push_back(
        util::StrFormat("--shards must be <= --nodes (got %zu > %zu)",
                        o.federation.shards, o.nodes));
  } else if (o.federation.shards > smallest) {
    problems.push_back(
        util::StrFormat("--shards must be <= %zu, the smallest fleet this "
                        "bench builds from --nodes=%zu (got %zu)",
                        smallest, o.nodes, o.federation.shards));
  }
  require(fleet.cell_shards <= smallest,
          util::StrFormat("--nodes must be >= %u: this bench runs %u-shard "
                          "cells (got %zu)",
                          fleet.cell_shards, fleet.cell_shards, o.nodes));
  require(o.federation.gossip_period > 0, "--gossip-period must be positive");
  require(o.federation.staleness_bound > 0, "--stale-bound must be positive");
  o.power.enabled = flags.GetBool("power", false);
  const std::string power_policy = flags.GetString("power-policy", "all");
  if (power_policy == "meter") {
    o.power.policy.park = false;
    o.power.policy.dvfs = false;
  } else if (power_policy == "dvfs") {
    o.power.policy.park = false;
  } else if (power_policy == "park") {
    o.power.policy.dvfs = false;
  } else {
    require(power_policy == "all",
            "--power-policy must be meter|dvfs|park|all (got \"" +
                power_policy + "\")");
  }
  o.packing.enabled = flags.GetBool("packing", false);
  o.packing.gang_fraction =
      flags.GetDouble("gang-fraction", o.packing.gang_fraction);
  o.packing.gang_hold = flags.GetDouble("gang-hold", o.packing.gang_hold);
  o.packing.frag_weight =
      flags.GetDouble("frag-weight", o.packing.frag_weight);
  o.packing.malleable_fraction =
      flags.GetDouble("malleable-fraction", o.packing.malleable_fraction);
  o.packing.malleable_min_frac =
      flags.GetDouble("malleable-min-frac", o.packing.malleable_min_frac);
  require(o.packing.gang_fraction >= 0 && o.packing.malleable_fraction >= 0 &&
              o.packing.gang_fraction + o.packing.malleable_fraction <= 1.0,
          "--gang-fraction and --malleable-fraction must be >= 0 and sum "
          "to <= 1");
  require(o.packing.malleable_min_frac >= 0 &&
              o.packing.malleable_min_frac <= 1.0,
          "--malleable-min-frac must be in [0,1]");
  require(o.packing.gang_hold > 0, "--gang-hold must be positive");
  require(o.packing.frag_weight >= 0, "--frag-weight must be >= 0");
  require(!o.packing.enabled || o.federation.shards <= 1,
          "--packing cannot be combined with --shards > 1 (gossiped free-slot "
          "digests do not carry capacity vectors)");
  require(!o.packing.enabled || fleet.cell_shards <= 1,
          util::StrFormat("--packing cannot be used with this bench: it runs "
                          "%u-shard cells",
                          fleet.cell_shards));
  o.workflow.dag = flags.GetBool("dag", false);
  o.workflow.deadline = flags.GetBool("deadline", false);
  o.dag_shape = flags.GetString("dag-shape", o.dag_shape);
  o.shape = flags.GetString("shape", "");
  o.trace_google = flags.GetString("trace-google", "");
  require(workflow::KnownDagShape(o.dag_shape),
          "--dag-shape must be chain|fanout|diamond (got \"" + o.dag_shape +
              "\")");
  // Unknown shapes are a usage error, not a silent steady fallback (and not
  // an abort: the nullable lookup exists exactly for CLI input).
  require(o.shape.empty() || trace::FindShapeByName(o.shape) != nullptr,
          "--shape must be steady|diurnal|flash-crowd (got \"" + o.shape +
              "\")");
  for (const char* flag : swept) {
    require(!flags.Provided(flag),
            util::StrFormat("--%s cannot be used with this bench: its "
                            "sweep overrides it in every cell",
                            flag));
  }
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "%s\n", problem.c_str());
  }
  if (!problems.empty()) std::exit(1);
  // After every flag above is declared, `--help` can print the complete
  // auto-generated listing and an unknown flag dies with that same usage.
  // Callers declaring extra flags before calling ParseBenchOptions get them
  // included for free (declaration order).
  flags.ValidateOrExit();
  runner::SetExperimentThreads(o.threads);
  return o;
}

/// The trace a bench cell runs: `--trace-google` replayed, or `profile`
/// generated for the bench fleet (--nodes, --jobs, --load, --seed) with the
/// `--shape` arrival shape and, under `--packing`, the gang/malleable mix
/// (so `--packing`-off traces are byte-identical); then, under `--dag`, the
/// DAG overlay. A bench sweeping a generator field sets it in `sweep`, which
/// runs last on the generator options, and names the flags that sweep
/// overrides (`--trace-google` always) in ParseBenchOptions.
inline trace::Trace MakeTrace(
    const std::string& profile, const BenchOptions& o,
    const std::function<void(trace::GeneratorOptions&)>& sweep = nullptr) {
  trace::Trace t;
  if (!o.trace_google.empty()) {
    PHOENIX_CHECK_MSG(!sweep, "a swept trace cannot replay --trace-google");
    std::string error;
    t = trace::ReadGoogleTraceFile(o.trace_google, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "--trace-google %s: %s\n", o.trace_google.c_str(),
                   error.c_str());
      std::exit(1);
    }
  } else {
    auto gen = trace::ProfileByName(profile);
    gen.num_jobs = o.jobs;
    gen.num_workers = o.nodes;
    gen.target_load = o.load;
    gen.seed = o.seed;
    if (o.packing.enabled) {
      gen.gang_fraction = o.packing.gang_fraction;
      gen.malleable_fraction = o.packing.malleable_fraction;
      gen.malleable_min_frac = o.packing.malleable_min_frac;
    }
    if (!o.shape.empty()) {
      trace::ApplyLoadShape(*trace::FindShapeByName(o.shape), gen);
    }
    if (sweep) sweep(gen);
    t = trace::GenerateTrace(profile, gen);
  }
  if (o.workflow.dag) {
    t = workflow::ApplyDagShape(t, o.dag_shape, kDagFraction, o.seed);
  }
  return t;
}

inline cluster::Cluster MakeCluster(std::size_t nodes, std::uint64_t seed) {
  return cluster::BuildCluster({.num_machines = nodes, .seed = seed});
}

/// The common flags as the run options of one bench cell. A bench running
/// more than one cell names each: the cell's observability files then carry
/// the name (runner::SuffixedObs), so no cell writes over another's. An
/// empty name, for a one-cell run, keeps the plain paths, as RepeatedRuns
/// does for one seed.
inline runner::RunOptions CellOptions(const BenchOptions& o,
                                      const std::string& scheduler,
                                      const std::string& cell = "") {
  runner::RunOptions ro;
  ro.scheduler = scheduler;
  ro.config.seed = o.seed;
  ro.config.net = o.net;
  ro.config.rpc = o.rpc;
  ro.obs = cell.empty() ? o.obs : runner::SuffixedObs(o.obs, cell);
  ro.federation = o.federation;
  ro.power = o.power;
  ro.config.packing = o.packing;
  ro.config.workflow = o.workflow;
  return ro;
}

/// Multi-seed run of one scheduler over a fixed trace/cluster, as the cell
/// `cell` (see CellOptions).
inline runner::RepeatedRuns Run(const std::string& scheduler,
                                const trace::Trace& t,
                                const cluster::Cluster& cl,
                                const BenchOptions& o,
                                const std::string& cell = "") {
  return runner::RepeatedRuns(t, cl, CellOptions(o, scheduler, cell), o.runs);
}

inline void PrintHeader(const char* title, const BenchOptions& o,
                        const char* paper_ref) {
  std::printf("== %s ==\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("config: nodes=%zu jobs=%zu load=%.2f seed=%llu runs=%zu%s\n\n",
              o.nodes, o.jobs, o.load,
              static_cast<unsigned long long>(o.seed), o.runs,
              o.paper ? " (paper scale)" : "");
}

// ---- Machine-readable output ----------------------------------------------

/// Key-value JSON object builder for the bench emitters (flat objects only;
/// keys are bench-controlled literals, values get minimal escaping).
class JsonObject {
 public:
  JsonObject& Add(const char* key, const std::string& value) {
    return Raw(key, "\"" + Escaped(value) + "\"");
  }
  JsonObject& Add(const char* key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonObject& Add(const char* key, double value) {
    return Raw(key, util::StrFormat("%g", value));
  }
  JsonObject& Add(const char* key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& AddInt(const char* key, std::uint64_t value) {
    return Raw(key, util::StrFormat("%llu",
                                    static_cast<unsigned long long>(value)));
  }

  std::string Render() const { return "{" + body_ + "}"; }
  bool empty() const { return body_.empty(); }

 private:
  JsonObject& Raw(const char* key, std::string value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + std::string(key) + "\": " + std::move(value);
    return *this;
  }
  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }
  std::string body_;
};

/// Appends every counter of `group`, keyed by its field name, in the order
/// of metrics/counters.def.
inline JsonObject& AddCounters(JsonObject& cell,
                               const metrics::SchedulerCounters& c,
                               metrics::CounterGroup group) {
  const auto add = [&cell](const char* key, auto value) {
    if constexpr (std::is_same_v<decltype(value), double>) {
      cell.Add(key, value);
    } else {
      cell.AddInt(key, value);
    }
  };
#define PHOENIX_COUNTER(row_group, type, name) \
  if (metrics::CounterGroup::row_group == group) add(#name, c.name);
#include "metrics/counters.def"
#undef PHOENIX_COUNTER
  return cell;
}

/// Appends the host-side throughput fields, summed over a cell's runs.
/// `events_fired` is deterministic for the cell's seeds; `sim_wall_seconds`
/// and `events_per_sec` are measurement artifacts — compare ratios on one
/// host, never absolute values across committed artifacts.
inline JsonObject& AddThroughput(JsonObject& cell, std::uint64_t events,
                                 double wall) {
  return cell.AddInt("events_fired", events)
      .Add("sim_wall_seconds", wall)
      .Add("events_per_sec",
           wall > 0 ? static_cast<double>(events) / wall : 0.0);
}

inline JsonObject& AddThroughput(
    JsonObject& cell, const std::vector<metrics::SimReport>& reports) {
  std::uint64_t events = 0;
  double wall = 0;
  for (const auto& r : reports) {
    events += r.events_fired;
    wall += r.sim_wall_seconds;
  }
  return AddThroughput(cell, events, wall);
}

/// Unified `--json` emitter: every BENCH_*.json artifact is stamped with the
/// bench name, a one-line description, and a config echo (the common bench
/// options plus bench-specific keys), followed by a flat list of cells — so
/// a committed artifact is self-describing about what produced it.
class JsonEmitter {
 public:
  JsonEmitter(std::string name, std::string description)
      : name_(std::move(name)), description_(std::move(description)) {}

  /// Config echo. Call AddCommonConfig once, then Add bench-specific keys.
  JsonObject& config() { return config_; }
  void AddCommonConfig(const BenchOptions& o) {
    config_.AddInt("nodes", o.nodes)
        .AddInt("jobs", o.jobs)
        .Add("load", o.load)
        .AddInt("seed", o.seed)
        .AddInt("runs", o.runs);
  }

  /// Appends a cell and returns it for field population.
  JsonObject& NewCell() {
    cells_.emplace_back();
    return cells_.back();
  }

  std::string Render() const {
    std::string out = "{\n";
    out += "  \"benchmark\": \"" + name_ + "\",\n";
    out += "  \"description\": \"" + description_ + "\",\n";
    out += "  \"config\": " + config_.Render() + ",\n";
    out += "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      out += "    " + cells_[i].Render();
      out += i + 1 < cells_.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
  }

  /// Writes the artifact; prints the path on success. Returns false (with a
  /// message on stderr) if the file cannot be opened.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open --json path %s\n", path.c_str());
      return false;
    }
    const std::string body = Render();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::string description_;
  JsonObject config_;
  std::vector<JsonObject> cells_;
};

}  // namespace phoenix::bench
