// Unit tests for percentiles, CDFs, time series and the simulation report.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "metrics/percentile.h"
#include "metrics/report.h"
#include "metrics/timeseries.h"
#include "util/rng.h"

namespace phoenix::metrics {
namespace {

// ---------------------------------------------------------------- Percentile

TEST(Percentile, EmptyIsZero) {
  std::vector<double> v;
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 0.0);
}

TEST(Percentile, SingleValue) {
  std::vector<double> v = {7.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 7.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 7.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 7.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
}

TEST(Percentile, MatchesKnownNumpyValues) {
  std::vector<double> v = {15, 20, 35, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(v, 40), 29.0);  // numpy.percentile default
}

TEST(Percentile, UnsortedInputHandled) {
  std::vector<double> v = {9, 1, 5, 3, 7};
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5.0);
}

TEST(Percentile, CopyVariantDoesNotMutate) {
  const std::vector<double> v = {3, 1, 2};
  EXPECT_DOUBLE_EQ(PercentileCopy(v, 100), 3.0);
  EXPECT_EQ(v, (std::vector<double>{3, 1, 2}));
}

TEST(PercentileDeathTest, OutOfRangePAborts) {
  std::vector<double> v = {1.0};
  EXPECT_DEATH(Percentile(v, 101), "percentile");
  EXPECT_DEATH(Percentile(v, -1), "percentile");
}

TEST(Summarize, AllFieldsPopulated) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const PercentileSummary s = Summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.p50, 50.5, 0.01);
  EXPECT_NEAR(s.p90, 90.1, 0.2);
  EXPECT_NEAR(s.p99, 99.01, 0.2);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(Summarize, EmptyIsZeroed) {
  const PercentileSummary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

// Property: percentile is monotone in p.
class PercentileMonotoneTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PercentileMonotoneTest, MonotoneInP) {
  util::Rng rng(GetParam());
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng.Uniform(0, 1000));
  double prev = -1;
  for (double p = 0; p <= 100; p += 5) {
    const double q = PercentileCopy(v, p);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------- Cdf

TEST(Cdf, EmptyInput) {
  EXPECT_TRUE(ComputeCdf({}).empty());
}

TEST(Cdf, MonotoneAndEndsAtOne) {
  util::Rng rng(6);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(rng.Uniform(0, 100));
  const auto cdf = ComputeCdf(v, 32);
  ASSERT_EQ(cdf.size(), 32u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GE(cdf[i].fraction, cdf[i - 1].fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(Cdf, SmallInputKeepsAllPoints) {
  const auto cdf = ComputeCdf({3.0, 1.0, 2.0}, 64);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf[2].value, 3.0);
}

// ---------------------------------------------------------------- TimeSeries

TEST(TimeSeries, BucketsMeansCorrectly) {
  TimeSeries ts(100.0, 10);
  ts.Add(5.0, 10.0);
  ts.Add(7.0, 20.0);
  ts.Add(95.0, 4.0);
  EXPECT_DOUBLE_EQ(ts.bucket_mean(0), 15.0);
  EXPECT_EQ(ts.bucket_count(0), 2u);
  EXPECT_DOUBLE_EQ(ts.bucket_mean(9), 4.0);
  EXPECT_DOUBLE_EQ(ts.bucket_mean(5), 0.0);
}

TEST(TimeSeries, SamplesBeyondHorizonLandInLastBucket) {
  TimeSeries ts(10.0, 5);
  ts.Add(100.0, 3.0);
  EXPECT_EQ(ts.bucket_count(4), 1u);
}

TEST(TimeSeries, BucketTimesAreMidpoints) {
  TimeSeries ts(100.0, 10);
  EXPECT_DOUBLE_EQ(ts.bucket_time(0), 5.0);
  EXPECT_DOUBLE_EQ(ts.bucket_time(9), 95.0);
}

TEST(TimeSeriesDeathTest, BadShapeAborts) {
  EXPECT_DEATH(TimeSeries(0.0, 5), "shape");
}

// ---------------------------------------------------------------- SimReport

SimReport MakeReport() {
  SimReport r;
  r.num_workers = 10;
  r.makespan = 100;
  r.total_busy_time = 400;
  auto add = [&](double submit, double completion, double queue, bool is_short,
                 bool constrained) {
    JobOutcome j;
    j.id = static_cast<trace::JobId>(r.jobs.size());
    j.submit = submit;
    j.completion = completion;
    j.queuing_delay = queue;
    j.max_task_wait = queue;
    j.num_tasks = 2;
    j.short_class = is_short;
    j.constrained = constrained;
    r.jobs.push_back(j);
  };
  add(0, 10, 1, true, true);     // short constrained, response 10
  add(0, 20, 2, true, false);    // short unconstrained, response 20
  add(0, 80, 3, false, true);    // long constrained, response 80
  add(0, 90, 4, false, false);   // long unconstrained, response 90
  return r;
}

TEST(SimReport, UtilizationComputed) {
  const SimReport r = MakeReport();
  EXPECT_DOUBLE_EQ(r.Utilization(), 0.4);
}

TEST(SimReport, FiltersSelectCorrectSlices) {
  const SimReport r = MakeReport();
  EXPECT_EQ(r.CountJobs(ClassFilter::kAll, ConstraintFilter::kAll), 4u);
  EXPECT_EQ(r.CountJobs(ClassFilter::kShort, ConstraintFilter::kAll), 2u);
  EXPECT_EQ(r.CountJobs(ClassFilter::kLong, ConstraintFilter::kConstrained), 1u);
  EXPECT_EQ(r.CountJobs(ClassFilter::kShort, ConstraintFilter::kUnconstrained),
            1u);
  EXPECT_EQ(r.CountTasks(ClassFilter::kAll, ConstraintFilter::kAll), 8u);
}

TEST(SimReport, ResponseAndQueuingVectors) {
  const SimReport r = MakeReport();
  const auto rt = r.ResponseTimes(ClassFilter::kShort, ConstraintFilter::kAll);
  EXPECT_EQ(rt, (std::vector<double>{10, 20}));
  const auto qd =
      r.QueuingDelays(ClassFilter::kLong, ConstraintFilter::kUnconstrained);
  EXPECT_EQ(qd, (std::vector<double>{4}));
}

TEST(SimReport, SummariesMatchVectors) {
  const SimReport r = MakeReport();
  const auto s = r.ResponseSummary(ClassFilter::kShort, ConstraintFilter::kAll);
  EXPECT_DOUBLE_EQ(s.p50, 15.0);
  EXPECT_DOUBLE_EQ(s.mean, 15.0);
  EXPECT_EQ(s.count, 2u);
}

TEST(SimReport, InvariantsPassForValidReport) {
  MakeReport().CheckInvariants();
}

TEST(SimReportDeathTest, CompletionBeforeSubmitAborts) {
  SimReport r = MakeReport();
  r.jobs[0].completion = -1;
  EXPECT_DEATH(r.CheckInvariants(), "before");
}

TEST(SimReportDeathTest, OverUtilizationAborts) {
  SimReport r = MakeReport();
  r.total_busy_time = 1e6;
  EXPECT_DEATH(r.CheckInvariants(), "utilization");
}

// The fingerprint must move with every counter (it hashes the whole block,
// not a hand-kept field list) and with the outcome fields the golden table
// relies on, and stay put for host wall time.
TEST(Fingerprint, CoversEveryCounterAndOutcomeField) {
  const SimReport base = MakeReport();
  const std::string fp = Fingerprint(base);
  EXPECT_EQ(Fingerprint(MakeReport()), fp);

  constexpr std::size_t kWords = sizeof(SchedulerCounters) / 8;
  for (std::size_t i = 0; i < kWords; ++i) {
    SimReport r = base;
    std::uint64_t words[kWords];
    std::memcpy(words, &r.counters, sizeof words);
    words[i] ^= 1;
    std::memcpy(&r.counters, words, sizeof words);
    EXPECT_NE(Fingerprint(r), fp) << "counter word " << i;
  }

  SimReport tenant = base;
  tenant.jobs[1].tenant = 2;
  EXPECT_NE(Fingerprint(tenant), fp);
  SimReport priority = base;
  priority.jobs[2].priority = 0;
  EXPECT_NE(Fingerprint(priority), fp);
  SimReport events = base;
  events.events_fired = 1;
  EXPECT_NE(Fingerprint(events), fp);
  SimReport wall = base;
  wall.sim_wall_seconds = 3.5;
  EXPECT_EQ(Fingerprint(wall), fp);
}

TEST(Speedup, RatioOfPercentiles) {
  const SimReport fast = MakeReport();
  SimReport slow = MakeReport();
  for (auto& j : slow.jobs) j.completion = j.submit + 2 * (j.completion - j.submit);
  EXPECT_DOUBLE_EQ(
      SpeedupAtPercentile(fast, slow, 99, ClassFilter::kShort,
                          ConstraintFilter::kAll),
      2.0);
}

}  // namespace
}  // namespace phoenix::metrics
