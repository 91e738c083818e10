// Golden fingerprint table (ctest -L golden).
//
// One fixed-seed simulation per (scheduler, feature set) row on a 100-worker
// fleet, compared by metrics::Fingerprint (events fired, the full counter
// block, every job outcome) against the committed table in
// tests/golden/paths.txt. A refactor that claims byte identity leaves every
// row unchanged; a deliberate re-baseline shows up as a diff of that file.
//
// Regenerate the table (one command, from the repo root):
//   scripts/regen_golden.sh [build-dir]
// which runs this binary as `golden_test --regenerate=tests/golden/paths.txt`.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/builder.h"
#include "metrics/report.h"
#include "runner/experiment.h"
#include "tenancy/config.h"
#include "trace/generators.h"
#include "workflow/shapes.h"

namespace phoenix {
namespace {

constexpr std::size_t kWorkers = 100;
constexpr std::size_t kJobs = 400;
constexpr std::uint64_t kSeed = 7;

const char* const kSchedulers[] = {"phoenix",   "eagle-c", "hawk-c",
                                   "sparrow-c", "yacc-d",  "central-c"};

// What one row varies: the trace generator, the run options, and whether
// the DAG overlay is applied to the generated trace.
struct Setup {
  trace::GeneratorOptions gen;
  runner::RunOptions run;
  bool dag_overlay = false;
};

void Chaos(Setup& s) {
  s.run.config.net.drop_rate = 0.05;
  s.run.config.net.duplicate_rate = 0.05;
  s.run.config.net.reorder_rate = 0.05;
}

void Tenants(Setup& s) {
  s.gen.tenant_weights = {1.0, 1.0, 1.0};
  tenancy::TenancyConfig& tc = s.run.config.tenancy;
  tc.tenants.push_back(
      {"prod", tenancy::PriorityClass::kProd, 0.5, 0.0, 60.0});
  tc.tenants.push_back(
      {"batch", tenancy::PriorityClass::kBatch, 0.4, 0.6, 0.0});
  tc.tenants.push_back(
      {"scav", tenancy::PriorityClass::kBestEffort, 0.0, 0.0, 0.0});
}

void Packing(Setup& s) { s.run.config.packing.enabled = true; }

void ChaosAudit(Setup& s) {
  Chaos(s);
  s.run.obs.audit = true;
}

// Machine failures (MTBF 20,000 s, MTTR 300 s), 5% chaos and the auditor.
void FailuresChaosAudit(Setup& s) {
  s.run.config.machine_mtbf = 20000;
  s.run.config.machine_mttr = 300;
  ChaosAudit(s);
}

void ElasticChurn(Setup& s) {
  elastic::ElasticConfig& e = s.run.elastic;
  e.enabled = true;
  e.base_machines = 60;
  e.reserve_machines = 25;
  e.transient_machines = 15;
  e.transient_target = 15;
  e.warmup_delay = 20.0;
  e.drain_grace = 30.0;
  e.reclaim_rate = 1.0 / 300.0;
  e.reclaim_grace = 10.0;
}

void GangMalleable(Setup& s) {
  Packing(s);
  s.run.config.packing.gang_fraction = 0.1;
  s.run.config.packing.malleable_fraction = 0.1;
  s.gen.gang_fraction = 0.1;
  s.gen.malleable_fraction = 0.1;
}

void DagDeadline(Setup& s) {
  s.run.config.workflow.dag = true;
  s.run.config.workflow.deadline = true;
  s.dag_overlay = true;
}

// DVFS on a long, lightly loaded diurnal run (40 jobs per worker at load
// 0.05): idle stretches of thousands of ticks drive idle machines'
// utilization EWMAs through the subnormal range onto the fixed point the
// power controller's sample skips (at load 0.5 no EWMA leaves the normal
// range on this fleet).
void PowerDvfsLongIdle(Setup& s) {
  s.gen.num_jobs = 40 * kWorkers;
  s.gen.target_load = 0.05;
  trace::ApplyLoadShape(trace::ShapeByName("diurnal"), s.gen);
  s.run.power.enabled = true;
  s.run.power.policy.park = false;
}

struct FeatureSet {
  const char* name;
  void (*apply)(Setup&);
  /// Heartbeats the row must reach: a row that exists to cover a long-run
  /// regime fails, instead of passing vacuously, once it stops covering it.
  std::uint64_t min_heartbeats = 0;
};

// Packing with parking is left out: it can livelock (ROADMAP item 1).
const FeatureSet kFeatureSets[] = {
    {"default", [](Setup&) {}},
    {"failures-chaos-audit", FailuresChaosAudit},
    {"tenants-preemption", Tenants},
    {"power-all", [](Setup& s) { s.run.power.enabled = true; }},
    {"dag-deadline", DagDeadline},
    {"elastic-churn", ElasticChurn},
    {"shards2-chaos",
     [](Setup& s) {
       s.run.federation.shards = 2;
       Chaos(s);
     }},
    {"packing", Packing},
    {"packing-failures-chaos-audit",
     [](Setup& s) {
       Packing(s);
       FailuresChaosAudit(s);
     }},
    {"packing-gang-malleable", GangMalleable},
    {"packing-tenants",
     [](Setup& s) {
       Packing(s);
       Tenants(s);
     }},
    {"packing-power-dvfs-dag-deadline",
     [](Setup& s) {
       Packing(s);
       s.run.power.enabled = true;
       s.run.power.policy.park = false;
       DagDeadline(s);
     }},
    // Failures combined with the DAG, gang/malleable and tenancy paths: the
    // replay, run-stop and queue-admission code each of them reaches.
    {"dag-deadline-failures-chaos-audit",
     [](Setup& s) {
       DagDeadline(s);
       FailuresChaosAudit(s);
     }},
    {"packing-gang-malleable-failures-chaos-audit",
     [](Setup& s) {
       GangMalleable(s);
       FailuresChaosAudit(s);
     }},
    {"tenants-failures-chaos-audit",
     [](Setup& s) {
       Tenants(s);
       FailuresChaosAudit(s);
     }},
    // The power and elastic controllers under 5% chaos, with the auditor.
    {"power-all-chaos-audit",
     [](Setup& s) {
       s.run.power.enabled = true;
       ChaosAudit(s);
     }},
    {"elastic-churn-chaos-audit",
     [](Setup& s) {
       ElasticChurn(s);
       ChaosAudit(s);
     }},
    // An idle EWMA leaves the normal range after ~3,200 idle ticks.
    {"power-dvfs-long-idle", PowerDvfsLongIdle, 3300},
};

std::string RowName(const std::string& scheduler, const FeatureSet& f) {
  return scheduler + " " + f.name;
}

metrics::SimReport RunRow(const std::string& scheduler, const FeatureSet& f) {
  Setup s;
  s.gen = trace::ProfileByName("google");
  s.gen.num_jobs = kJobs;
  s.gen.num_workers = kWorkers;
  s.gen.target_load = 0.85;
  s.gen.seed = kSeed;
  s.run.scheduler = scheduler;
  s.run.config.seed = kSeed;
  f.apply(s);
  trace::Trace t = trace::GenerateTrace("google", s.gen);
  if (s.dag_overlay) t = workflow::ApplyDagShape(t, "chain", 0.3, kSeed);
  const auto cl =
      cluster::BuildCluster({.num_machines = kWorkers, .seed = kSeed});
  return runner::RunSimulation(t, cl, s.run);
}

// Committed rows keyed by "scheduler feature-set".
std::map<std::string, std::string> LoadTable() {
  std::map<std::string, std::string> rows;
  std::ifstream in(PHOENIX_GOLDEN_TABLE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string scheduler, feature, fingerprint;
    fields >> scheduler >> feature;
    std::getline(fields >> std::ws, fingerprint);
    rows[scheduler + " " + feature] = fingerprint;
  }
  return rows;
}

struct Row {
  std::string scheduler;
  const FeatureSet* features;
};

std::vector<Row> AllRows() {
  std::vector<Row> rows;
  for (const FeatureSet& f : kFeatureSets) {
    for (const char* s : kSchedulers) rows.push_back({s, &f});
  }
  return rows;
}

void PrintTo(const Row& row, std::ostream* os) {
  *os << RowName(row.scheduler, *row.features);
}

class GoldenPaths : public ::testing::TestWithParam<Row> {};

TEST_P(GoldenPaths, FingerprintMatchesCommittedTable) {
  static const std::map<std::string, std::string> table = LoadTable();
  const Row& row = GetParam();
  const std::string name = RowName(row.scheduler, *row.features);
  const auto it = table.find(name);
  ASSERT_NE(it, table.end()) << "row missing from " << PHOENIX_GOLDEN_TABLE
                             << ": " << name;
  const metrics::SimReport report = RunRow(row.scheduler, *row.features);
  EXPECT_EQ(metrics::Fingerprint(report), it->second) << name;
  EXPECT_GE(report.counters.heartbeats, row.features->min_heartbeats) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Rows, GoldenPaths, ::testing::ValuesIn(AllRows()),
    [](const ::testing::TestParamInfo<Row>& info) {
      std::string n = info.param.scheduler + "_" + info.param.features->name;
      for (char& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

int Regenerate(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "# scheduler feature-set fingerprint (tests/golden_test.cc; "
         "regenerate with scripts/regen_golden.sh)\n";
  for (const Row& row : AllRows()) {
    out << RowName(row.scheduler, *row.features) << " "
        << metrics::Fingerprint(RunRow(row.scheduler, *row.features)) << "\n";
  }
  return out ? 0 : 1;
}

}  // namespace
}  // namespace phoenix

int main(int argc, char** argv) {
  const std::string flag = "--regenerate=";
  if (argc == 2 && std::string(argv[1]).rfind(flag, 0) == 0) {
    return phoenix::Regenerate(std::string(argv[1]).substr(flag.size()));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
