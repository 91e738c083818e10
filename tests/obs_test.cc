// Tests for the observability subsystem: event tracing (JSONL + Chrome
// trace_event), the per-heartbeat timeseries export, and the invariant
// auditor — including audited end-to-end runs mirroring the paper's
// fig. 7 / fig. 10 workloads under failure churn.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/sweep.h"
#include "cluster/builder.h"
#include "obs/audit.h"
#include "obs/event.h"
#include "obs/heartbeat_log.h"
#include "obs/trace_writer.h"
#include "runner/experiment.h"
#include "runner/parallel.h"
#include "trace/generators.h"

namespace phoenix {
namespace {

using obs::Event;
using obs::EventType;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "obs_test_" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Minimal recursive-descent JSON validator — enough to prove the Chrome
// trace is syntactically well-formed without a JSON library dependency.
class MiniJson {
 public:
  explicit MiniJson(const std::string& text) : s_(text) {}

  /// True if the whole input is exactly one valid JSON value.
  bool Valid() {
    pos_ = 0;
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool String() {
    if (!Consume('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // skip the escaped character
      ++pos_;
    }
    return Consume('"');
  }
  bool Number() {
    SkipWs();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }
  bool Object() {
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    do {
      if (!String() || !Consume(':') || !Value()) return false;
    } while (Consume(','));
    return Consume('}');
  }
  bool Array() {
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    do {
      if (!Value()) return false;
    } while (Consume(','));
    return Consume(']');
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

runner::RunOptions BaseOptions(const std::string& scheduler,
                               std::uint64_t seed) {
  runner::RunOptions o;
  o.scheduler = scheduler;
  o.config.seed = seed;
  return o;
}

// ---------------------------------------------------------------- plumbing

TEST(Obs, SeedSuffixedPath) {
  EXPECT_EQ(runner::SeedSuffixedPath("out.json", 43), "out.seed43.json");
  EXPECT_EQ(runner::SeedSuffixedPath("events.jsonl", 5), "events.seed5.jsonl");
  EXPECT_EQ(runner::SeedSuffixedPath("noext", 1), "noext.seed1");
  EXPECT_EQ(runner::SeedSuffixedPath("dir.v2/out", 7), "dir.v2/out.seed7");
  EXPECT_EQ(runner::SeedSuffixedPath("dir.v2/out.tsv", 7),
            "dir.v2/out.seed7.tsv");
}

TEST(Obs, EventTypeNamesAreStableAndDistinct) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < obs::kNumEventTypes; ++i) {
    const char* name = obs::EventTypeName(static_cast<EventType>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  // Serialized spellings are a stable interface for downstream tooling.
  EXPECT_STREQ(obs::EventTypeName(EventType::kProbeSend), "probe_send");
  EXPECT_STREQ(obs::EventTypeName(EventType::kTaskComplete), "task_complete");
  EXPECT_STREQ(obs::EventTypeName(EventType::kMachineFail), "machine_fail");
}

// ---------------------------------------------------------------- auditor

TEST(Obs, AuditorAcceptsBalancedStream) {
  obs::InvariantAuditor a;
  a.OnEvent({0.0, EventType::kJobArrival, 0, obs::kNoId, obs::kNoId, 1.0});
  a.OnEvent({0.1, EventType::kProbeSend, 0, 3});
  a.OnEvent({0.2, EventType::kProbeResolve, 0, 3, 0});
  a.OnEvent({0.2, EventType::kTaskStart, 0, 3, 0, 5.0});
  a.OnEvent({5.2, EventType::kTaskComplete, 0, 3, 0, 5.0});
  a.OnEvent({5.2, EventType::kJobComplete, 0, 3, obs::kNoId, 5.2});
  a.Finish();
  EXPECT_TRUE(a.ok()) << a.Summary();
  EXPECT_EQ(a.events_seen(), 6u);
}

TEST(Obs, AuditorCatchesNegativeProbeBalance) {
  obs::InvariantAuditor a;
  a.OnEvent({1.0, EventType::kProbeResolve, 7, 3, 0});  // resolve, never sent
  EXPECT_FALSE(a.ok());
  EXPECT_NE(a.Summary().find("probe balance"), std::string::npos);
}

TEST(Obs, AuditorCatchesProbeLeakAndUnfinishedJob) {
  obs::InvariantAuditor a;
  a.OnEvent({0.0, EventType::kJobArrival, 0, obs::kNoId, obs::kNoId, 2.0});
  a.OnEvent({0.1, EventType::kProbeSend, 0, 1});
  a.Finish();  // probe never resolved, job never completed
  ASSERT_FALSE(a.ok());
  const std::string summary = a.Summary();
  EXPECT_NE(summary.find("never completed"), std::string::npos);
  EXPECT_NE(summary.find("probe leak"), std::string::npos);
}

TEST(Obs, AuditorCatchesMachineLifecycleViolations) {
  obs::InvariantAuditor a;
  a.OnEvent({1.0, EventType::kMachineFail, obs::kNoId, 4});
  a.OnEvent({2.0, EventType::kMachineFail, obs::kNoId, 4});  // already down
  EXPECT_FALSE(a.ok());
  EXPECT_NE(a.Summary().find("already down"), std::string::npos);
}

TEST(Obs, AuditorCatchesStrandedBusyWorker) {
  obs::InvariantAuditor a;
  // A busy worker whose slot event is gone is exactly the stranded-slot
  // state the sticky-fetch bugfix removes.
  a.CheckWorker(10.0, 2, /*busy=*/true, /*failed=*/false,
                /*has_live_slot_event=*/false, 0, 0.0, /*final_state=*/false);
  ASSERT_FALSE(a.ok());
  EXPECT_NE(a.Summary().find("stranded"), std::string::npos);
}

TEST(Obs, AuditorCatchesUndrainedFinalState) {
  obs::InvariantAuditor a;
  a.CheckWorker(99.0, 0, /*busy=*/false, /*failed=*/false,
                /*has_live_slot_event=*/false, /*queue_len=*/3, 1.5,
                /*final_state=*/true);
  ASSERT_FALSE(a.ok());
  EXPECT_NE(a.Summary().find("queued entries"), std::string::npos);
}

TEST(Obs, AuditorCatchesRunOnFailedMachine) {
  obs::InvariantAuditor a;
  a.CheckRun(10.0, 2, /*job=*/7, /*task=*/1, /*failed=*/true,
             /*out_of_service=*/false, /*completion_pending=*/true,
             /*final_state=*/false);
  ASSERT_FALSE(a.ok());
  EXPECT_NE(a.Summary().find("while failed"), std::string::npos);
}

TEST(Obs, AuditorCatchesRunOnOutOfServiceMachine) {
  obs::InvariantAuditor a;
  a.CheckRun(10.0, 2, 7, 1, /*failed=*/false, /*out_of_service=*/true,
             /*completion_pending=*/true, /*final_state=*/false);
  ASSERT_FALSE(a.ok());
  EXPECT_NE(a.Summary().find("out of service"), std::string::npos);
}

TEST(Obs, AuditorCatchesRunWithoutPendingCompletion) {
  obs::InvariantAuditor a;
  a.CheckRun(10.0, 2, 7, 1, /*failed=*/false, /*out_of_service=*/false,
             /*completion_pending=*/false, /*final_state=*/false);
  ASSERT_FALSE(a.ok());
  EXPECT_NE(a.Summary().find("stranded run"), std::string::npos);
}

TEST(Obs, AuditorCatchesRunLeftAtEnd) {
  obs::InvariantAuditor a;
  a.CheckRun(99.0, 0, 7, 1, /*failed=*/false, /*out_of_service=*/false,
             /*completion_pending=*/true, /*final_state=*/true);
  ASSERT_FALSE(a.ok());
  EXPECT_NE(a.Summary().find("after the run drained"), std::string::npos);
}

TEST(Obs, AuditorCatchesHintDisagreeingWithItsWorker) {
  obs::InvariantAuditor a;
  obs::WorkerHints actual;
  actual.live = true;
  actual.steal_gate = true;
  a.CheckHints(10.0, 3, actual, actual);
  EXPECT_TRUE(a.ok()) << a.Summary();
  // A missed refresh after the worker took a fetch: the hints still read
  // idle and open to steals.
  obs::WorkerHints busy = actual;
  busy.occupied = true;
  busy.steal_gate = false;
  a.CheckHints(11.0, 3, actual, busy);
  ASSERT_EQ(a.violations().size(), 2u);
  EXPECT_NE(a.violations()[0].find("machine 3 occupied hint reads 0"),
            std::string::npos);
  EXPECT_NE(a.violations()[1].find("machine 3 steal gate hint reads 1"),
            std::string::npos);
}

TEST(Obs, AuditorNamesTheLowestLeakedMessage) {
  obs::InvariantAuditor a;
  // Two sends never terminate. The ledger's own order would list 907 first
  // (the later insert, and the lower hash slot), but the diagnosis must not
  // depend on the hash layout: it names the lowest leaked id.
  a.OnEvent({1.0, EventType::kMsgSend, obs::kNoId, 0, 0, 41.0});
  a.OnEvent({1.0, EventType::kMsgSend, obs::kNoId, 0, 0, 907.0});
  EXPECT_TRUE(a.ok()) << a.Summary();
  a.Finish();
  ASSERT_FALSE(a.ok());
  const std::string summary = a.Summary();
  EXPECT_NE(summary.find("2 control-plane message(s) still in flight"),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find("(e.g. id 41)"), std::string::npos) << summary;
}

// ---------------------------------------------------------------- writers

TEST(Obs, JsonlStreamIsWellFormed) {
  const std::string path = TempPath("events.jsonl");
  const auto cl = cluster::BuildCluster({.num_machines = 20, .seed = 61});
  const auto t = trace::GenerateGoogleTrace(300, 20, 0.7, 61);
  auto o = BaseOptions("eagle-c", 61);
  o.obs.trace_jsonl = path;
  runner::RunSimulation(t, cl, o);

  const auto lines = Lines(Slurp(path));
  ASSERT_GT(lines.size(), 1000u);  // 300 jobs emit far more events than this
  bool saw_complete = false, saw_sample = false;
  for (const auto& line : lines) {
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.front(), '{') << line;
    ASSERT_EQ(line.back(), '}') << line;
    ASSERT_TRUE(MiniJson(line).Valid()) << line;
    ASSERT_NE(line.find("\"type\":"), std::string::npos) << line;
    saw_complete |= line.find("\"task_complete\"") != std::string::npos;
    saw_sample |= line.find("\"worker_sample\"") != std::string::npos;
  }
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_sample);
  std::remove(path.c_str());
}

TEST(Obs, ChromeTraceIsValidJson) {
  const std::string path = TempPath("chrome.json");
  const auto cl = cluster::BuildCluster({.num_machines = 20, .seed = 67});
  const auto t = trace::GenerateGoogleTrace(300, 20, 0.7, 67);
  auto o = BaseOptions("phoenix", 67);
  o.obs.trace_chrome = path;
  runner::RunSimulation(t, cl, o);

  const std::string text = Slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(MiniJson(text).Valid()) << "chrome trace is not valid JSON";
  // The viewer contract: an array of records with slices ("X") for task
  // executions and counters ("C") for the heartbeat tracks.
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  std::remove(path.c_str());
}

// The fleet sweeps run their (scheduler, fleet) cells concurrently, so each
// cell must write its own files: cells sharing one path interleave their
// streams into an invalid file.
TEST(Obs, ConcurrentSweepCellsWriteOwnTraceFiles) {
  bench::BenchOptions o;
  o.nodes = 16;
  o.jobs = 240;
  o.seed = 5;
  o.obs.trace_chrome = TempPath("sweep.json");
  o.obs.trace_jsonl = TempPath("sweep.jsonl");
  runner::SetExperimentThreads(2);
  bench::RunNormalizedSweep("google", "phoenix", "eagle-c",
                            metrics::ClassFilter::kShort, o);
  runner::SetExperimentThreads(0);
  std::size_t files = 0;
  for (const std::string scheduler : {"phoenix", "eagle-c"}) {
    for (const double mult : bench::SweepMultipliers()) {
      const std::string tag =
          "google-" + scheduler + "-x" + util::StrFormat("%g", mult);
      const std::string chrome = runner::SuffixedPath(o.obs.trace_chrome, tag);
      const std::string text = Slurp(chrome);
      EXPECT_TRUE(MiniJson(text).Valid()) << chrome << " is not valid JSON";
      EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos) << chrome;
      const std::string jsonl = runner::SuffixedPath(o.obs.trace_jsonl, tag);
      std::istringstream lines(Slurp(jsonl));
      std::size_t records = 0;
      for (std::string line; std::getline(lines, line); ++records) {
        ASSERT_TRUE(MiniJson(line).Valid()) << jsonl << ": " << line;
      }
      EXPECT_GT(records, 0u) << jsonl;
      std::remove(chrome.c_str());
      std::remove(jsonl.c_str());
      ++files;
    }
  }
  EXPECT_EQ(files, 2 * bench::SweepMultipliers().size());
  // Nothing lands on the untagged paths.
  EXPECT_FALSE(std::ifstream(o.obs.trace_chrome).good());
  EXPECT_FALSE(std::ifstream(o.obs.trace_jsonl).good());
}

TEST(Obs, HeartbeatTimeseriesSchema) {
  const std::string path = TempPath("hb.tsv");
  const std::size_t nodes = 15;
  const auto cl = cluster::BuildCluster({.num_machines = nodes, .seed = 71});
  const auto t = trace::GenerateGoogleTrace(200, nodes, 0.7, 71);
  auto o = BaseOptions("phoenix", 71);
  o.obs.timeseries_tsv = path;
  runner::RunSimulation(t, cl, o);

  const auto lines = Lines(Slurp(path));
  ASSERT_GT(lines.size(), 1u);
  EXPECT_EQ(lines[0],
            "time\tmachine\tqueue_len\test_queued_work\twait_estimate\t"
            "crv_marked\tbusy\tfailed");
  // One row per (heartbeat, worker).
  EXPECT_EQ((lines.size() - 1) % nodes, 0u);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::size_t tabs = 0;
    for (char c : lines[i]) tabs += c == '\t';
    ASSERT_EQ(tabs, 7u) << lines[i];
  }
  // Phoenix also exports its CRV snapshot history alongside.
  const auto crv = Lines(Slurp(path + ".crv"));
  ASSERT_GT(crv.size(), 1u);
  EXPECT_EQ(crv[0], "time\tdim\tratio");
  std::remove(path.c_str());
  std::remove((path + ".crv").c_str());
}

// ------------------------------------------------------- audited end-to-end

// Audited versions of the paper's workloads: RunSimulation aborts the test
// if the auditor records any violation, so passing means the full event
// stream satisfied every conservation law.

TEST(Obs, AuditCleanOnGoogleWorkloadUnderChurn) {
  const auto cl = cluster::BuildCluster({.num_machines = 60, .seed = 73});
  const auto t = trace::GenerateGoogleTrace(1200, 60, 0.8, 73);
  for (const char* scheduler : {"phoenix", "eagle-c", "hawk-c"}) {
    auto o = BaseOptions(scheduler, 73);
    o.obs.audit = true;
    o.config.machine_mtbf = 3000;
    o.config.machine_mttr = 200;
    const auto report = runner::RunSimulation(t, cl, o);
    EXPECT_EQ(report.jobs.size(), t.size()) << scheduler;
    EXPECT_GT(report.counters.machine_failures, 0u) << scheduler;
  }
}

TEST(Obs, AuditCleanOnYahooWorkloadUnderChurn) {
  const auto cl = cluster::BuildCluster({.num_machines = 60, .seed = 79});
  const auto t = trace::GenerateYahooTrace(1200, 60, 0.8, 79);
  for (const char* scheduler : {"phoenix", "eagle-c", "central-c"}) {
    auto o = BaseOptions(scheduler, 79);
    o.obs.audit = true;
    o.config.machine_mtbf = 3000;
    o.config.machine_mttr = 200;
    const auto report = runner::RunSimulation(t, cl, o);
    EXPECT_EQ(report.jobs.size(), t.size()) << scheduler;
  }
}

class ObsThreadsTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void TearDown() override { runner::SetExperimentThreads(0); }
};

TEST_P(ObsThreadsTest, AuditedRepeatedRunsWritePerSeedFiles) {
  runner::SetExperimentThreads(GetParam());
  const std::string path =
      TempPath("multi" + std::to_string(GetParam()) + ".tsv");
  const auto cl = cluster::BuildCluster({.num_machines = 30, .seed = 83});
  const auto t = trace::GenerateGoogleTrace(400, 30, 0.75, 83);
  auto o = BaseOptions("phoenix", 83);
  o.obs.audit = true;
  o.obs.timeseries_tsv = path;
  o.config.machine_mtbf = 5000;
  o.config.machine_mttr = 150;
  runner::RepeatedRuns runs(t, cl, o, /*runs=*/2);
  EXPECT_EQ(runs.reports().size(), 2u);
  // Each seed got its own file; the unsuffixed path was never written.
  for (std::uint64_t seed : {83u, 84u}) {
    const std::string seeded = runner::SeedSuffixedPath(path, seed);
    std::ifstream in(seeded);
    EXPECT_TRUE(in.good()) << seeded;
    std::remove(seeded.c_str());
  }
  EXPECT_FALSE(std::ifstream(path).good());
}

INSTANTIATE_TEST_SUITE_P(Threads, ObsThreadsTest, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "threads_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace phoenix
