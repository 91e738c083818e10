// Ablation benches for the design choices the paper fixes empirically:
//   * feature ablation — which Phoenix mechanism buys the tail win
//     (the paper's contributions 1-3, toggled independently);
//   * probe ratio (paper: 2 is the sweet spot, §V-A);
//   * heartbeat interval (paper: 9 s, §VI-C);
//   * slack / starvation threshold (paper: 5, §V-A);
//   * CRV threshold (Algorithm 1's trigger).
// Each sweep reports short-job p50/p99 and the relevant counters.
#include <cctype>
#include <cstdio>
#include <string>

#include "bench/common.h"

using namespace phoenix;

namespace {

// "probe ratio 2" -> "probe-ratio-2": a row label as a file tag.
std::string FileTag(const std::string& label) {
  std::string tag;
  for (const char c : label) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '.') {
      tag += c;
    } else if (!tag.empty() && tag.back() != '-') {
      tag += '-';
    }
  }
  if (!tag.empty() && tag.back() == '-') tag.pop_back();
  return tag;
}

// One ablation cell: `options` with its observability files tagged by the
// row label, so every cell writes its own file set.
void Report(util::TextTable& table, const std::string& label,
            const trace::Trace& trace, const cluster::Cluster& cluster,
            runner::RunOptions options) {
  options.obs = runner::SuffixedObs(options.obs, FileTag(label));
  const auto report = runner::RunSimulation(trace, cluster, options);
  const auto s = report.ResponseSummary(metrics::ClassFilter::kShort,
                                        metrics::ConstraintFilter::kAll);
  table.AddRow({label, util::HumanDuration(s.p50), util::HumanDuration(s.p90),
                util::HumanDuration(s.p99),
                util::WithCommas(static_cast<std::int64_t>(
                    report.counters.tasks_reordered_crv)),
                util::WithCommas(static_cast<std::int64_t>(
                    report.counters.soft_constraints_relaxed)),
                util::WithCommas(static_cast<std::int64_t>(
                    report.counters.probes_sent))});
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);
  const auto o = bench::ParseBenchOptions(flags, 300, 1);
  bench::PrintHeader("Ablation: Phoenix design choices", o,
                     "design-choice claims in §IV-A, §V-A, §VI-C");

  const auto trace = bench::MakeTrace("google", o);
  const auto cluster = bench::MakeCluster(o.nodes, o.seed);
  // Every variant starts from the common flags and overrides only what it
  // sweeps.
  const runner::RunOptions base = bench::CellOptions(o, "phoenix");

  {
    std::printf("--- feature ablation ---\n");
    util::TextTable t({"variant", "p50", "p90", "p99", "CRV reorders",
                       "relaxations", "probes"});
    Report(t, "phoenix (all on)", trace, cluster, base);
    auto v = base;
    v.config.phoenix_crv_reorder = false;
    Report(t, "- CRV reordering", trace, cluster, v);
    v = base;
    v.config.phoenix_admission = false;
    Report(t, "- proactive admission", trace, cluster, v);
    v = base;
    v.config.phoenix_wait_aware_probes = false;
    Report(t, "- wait-aware probes", trace, cluster, v);
    v = base;
    v.config.phoenix_suspend_sbp = true;
    Report(t, "+ SBP suspension at peak", trace, cluster, v);
    v = base;
    v.scheduler = "eagle-c";
    Report(t, "eagle-c (none)", trace, cluster, v);
    std::printf("%s\n", t.ToString().c_str());
  }

  {
    std::printf("--- probe ratio (paper picks 2) ---\n");
    util::TextTable t({"variant", "p50", "p90", "p99", "CRV reorders",
                       "relaxations", "probes"});
    for (const std::size_t ratio : {1u, 2u, 3u, 4u}) {
      auto v = base;
      v.config.probe_ratio = ratio;
      Report(t, util::StrFormat("probe ratio %zu", ratio), trace, cluster, v);
    }
    std::printf("%s\n", t.ToString().c_str());
  }

  {
    std::printf("--- heartbeat interval (paper picks 9 s) ---\n");
    util::TextTable t({"variant", "p50", "p90", "p99", "CRV reorders",
                       "relaxations", "probes"});
    for (const double hb : {3.0, 9.0, 27.0, 81.0}) {
      auto v = base;
      v.config.heartbeat_interval = hb;
      Report(t, util::StrFormat("heartbeat %.0fs", hb), trace, cluster, v);
    }
    std::printf("%s\n", t.ToString().c_str());
  }

  {
    std::printf("--- slack / starvation threshold (paper picks 5) ---\n");
    util::TextTable t({"variant", "p50", "p90", "p99", "CRV reorders",
                       "relaxations", "probes"});
    for (const std::size_t slack : {1u, 3u, 5u, 10u, 50u}) {
      auto v = base;
      v.config.slack_threshold = slack;
      Report(t, util::StrFormat("slack %zu", slack), trace, cluster, v);
    }
    std::printf("%s\n", t.ToString().c_str());
  }

  {
    std::printf("--- CRV threshold (Algorithm 1 trigger) ---\n");
    util::TextTable t({"variant", "p50", "p90", "p99", "CRV reorders",
                       "relaxations", "probes"});
    for (const double thr : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      auto v = base;
      v.config.crv_threshold = thr;
      Report(t, util::StrFormat("CRV threshold %.2f", thr), trace, cluster, v);
    }
    std::printf("%s\n", t.ToString().c_str());
  }

  {
    std::printf("--- fleet model: heterogeneity & generation correlation ---\n");
    util::TextTable t({"variant", "p50", "p90", "p99", "CRV reorders",
                       "relaxations", "probes"});
    for (const auto& [label, het, corr] :
         std::vector<std::tuple<std::string, double, double>>{
             {"heterogeneous, correlated (default)", 1.0, 0.6},
             {"heterogeneous, independent attrs", 1.0, 0.0},
             {"homogeneous fleet", 0.0, 0.6}}) {
      const auto fleet = cluster::BuildCluster({.num_machines = o.nodes,
                                                .seed = o.seed,
                                                .heterogeneity = het,
                                                .attribute_correlation = corr});
      Report(t, label, trace, fleet, base);
    }
    std::printf("%s\n", t.ToString().c_str());
  }

  std::printf("expected shape: proactive admission carries most of the p99 "
              "win; CRV reordering and wait-aware probes add on top; probe "
              "ratio 2 and moderate heartbeats are near-optimal; tiny slack "
              "disables reordering, huge slack risks starvation\n");
  return 0;
}
