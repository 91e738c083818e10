// Unit tests for the experiment runner and scheduler registry.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "cluster/builder.h"
#include "runner/experiment.h"
#include "runner/registry.h"
#include "trace/generators.h"

namespace phoenix::runner {
namespace {

TEST(Registry, ListsAllSchedulers) {
  const auto& names = SchedulerNames();
  EXPECT_EQ(names.size(), 6u);
  EXPECT_NE(std::find(names.begin(), names.end(), "phoenix"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "central-c"), names.end());
}

TEST(Registry, InstantiatesEveryListedScheduler) {
  sim::Engine engine;
  const cluster::Cluster cl =
      cluster::BuildCluster({.num_machines = 4, .seed = 1});
  sched::SchedulerConfig config;
  for (const auto& name : SchedulerNames()) {
    auto s = MakeScheduler(name, engine, cl, config);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), name);
  }
}

TEST(RegistryDeathTest, UnknownNameAborts) {
  sim::Engine engine;
  const cluster::Cluster cl =
      cluster::BuildCluster({.num_machines = 4, .seed = 1});
  EXPECT_DEATH(MakeScheduler("borg", engine, cl, sched::SchedulerConfig{}),
               "unknown scheduler");
}

TEST(RunSimulation, ProducesCompleteReport) {
  const cluster::Cluster cl =
      cluster::BuildCluster({.num_machines = 40, .seed = 2});
  const auto t = trace::GenerateGoogleTrace(300, 40, 0.7, 2);
  RunOptions o;
  o.scheduler = "phoenix";
  const auto report = RunSimulation(t, cl, o);
  EXPECT_EQ(report.jobs.size(), 300u);
  EXPECT_EQ(report.scheduler_name, "phoenix");
  EXPECT_EQ(report.trace_name, "google");
  EXPECT_EQ(report.num_workers, 40u);
  EXPECT_GT(report.makespan, 0.0);
}

TEST(RepeatedRuns, RunsRequestedSeedCount) {
  const cluster::Cluster cl =
      cluster::BuildCluster({.num_machines = 30, .seed = 3});
  const auto t = trace::GenerateYahooTrace(200, 30, 0.7, 3);
  RunOptions o;
  o.scheduler = "eagle-c";
  const RepeatedRuns runs(t, cl, o, 3);
  EXPECT_EQ(runs.reports().size(), 3u);
}

TEST(RepeatedRuns, MeanPercentileIsWithinRunEnvelope) {
  const cluster::Cluster cl =
      cluster::BuildCluster({.num_machines = 30, .seed = 4});
  const auto t = trace::GenerateGoogleTrace(400, 30, 0.8, 4);
  RunOptions o;
  o.scheduler = "phoenix";
  const RepeatedRuns runs(t, cl, o, 3);
  const double mean = runs.MeanResponsePercentile(
      99, metrics::ClassFilter::kShort, metrics::ConstraintFilter::kAll);
  double lo = 1e300, hi = -1e300;
  for (const auto& r : runs.reports()) {
    auto v = r.ResponseTimes(metrics::ClassFilter::kShort,
                             metrics::ConstraintFilter::kAll);
    const double p = metrics::Percentile(v, 99);
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  EXPECT_GE(mean, lo - 1e-9);
  EXPECT_LE(mean, hi + 1e-9);
}

TEST(RepeatedRuns, DifferentSeedsActuallyVary) {
  const cluster::Cluster cl =
      cluster::BuildCluster({.num_machines = 30, .seed = 5});
  const auto t = trace::GenerateGoogleTrace(400, 30, 0.8, 5);
  RunOptions o;
  o.scheduler = "phoenix";
  const RepeatedRuns runs(t, cl, o, 2);
  // The scheduler's stochastic probe targets should differ between seeds.
  EXPECT_NE(runs.reports()[0].counters.probes_cancelled,
            runs.reports()[1].counters.probes_cancelled);
}

TEST(RepeatedRuns, UtilizationAveraged) {
  const cluster::Cluster cl =
      cluster::BuildCluster({.num_machines = 30, .seed = 6});
  const auto t = trace::GenerateClouderaTrace(200, 30, 0.6, 6);
  RunOptions o;
  o.scheduler = "hawk-c";
  const RepeatedRuns runs(t, cl, o, 2);
  EXPECT_GT(runs.MeanUtilization(), 0.0);
  EXPECT_LE(runs.MeanUtilization(), 1.0);
}

TEST(AggregateCounters, SumsEveryField) {
  // Walks SchedulerCounters' 8-byte words instead of naming fields, so a
  // counter added to the struct but not to the aggregation fails here. A
  // word set to 1 in two reports must be non-zero in their sum (the bit
  // pattern of a double field is a denormal, which sums non-zero too).
  constexpr std::size_t kWords = sizeof(metrics::SchedulerCounters) / 8;
  static_assert(sizeof(metrics::SchedulerCounters) % 8 == 0);
  for (std::size_t i = 0; i < kWords; ++i) {
    std::vector<metrics::SimReport> reports(2);
    for (metrics::SimReport& r : reports) {
      std::uint64_t words[kWords] = {};
      words[i] = 1;
      std::memcpy(&r.counters, words, sizeof words);
    }
    const metrics::SchedulerCounters sum = AggregateCounters(reports);
    std::uint64_t words[kWords];
    std::memcpy(words, &sum, sizeof words);
    EXPECT_NE(words[i], 0u) << "counter word " << i << " is not aggregated";
  }
}

}  // namespace
}  // namespace phoenix::runner
