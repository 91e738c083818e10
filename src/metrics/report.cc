#include "metrics/report.h"

#include <cstring>
#include <type_traits>

#include "util/check.h"
#include "util/format.h"

namespace phoenix::metrics {

namespace {

bool Matches(const JobOutcome& job, ClassFilter cf, ConstraintFilter kf) {
  switch (cf) {
    case ClassFilter::kAll: break;
    case ClassFilter::kShort:
      if (!job.short_class) return false;
      break;
    case ClassFilter::kLong:
      if (job.short_class) return false;
      break;
  }
  switch (kf) {
    case ConstraintFilter::kAll: break;
    case ConstraintFilter::kConstrained:
      if (!job.constrained) return false;
      break;
    case ConstraintFilter::kUnconstrained:
      if (job.constrained) return false;
      break;
  }
  return true;
}

}  // namespace

double SimReport::Utilization() const {
  if (active_machine_seconds > 0) {
    return total_busy_time / active_machine_seconds;
  }
  if (num_workers == 0 || makespan <= 0) return 0;
  return total_busy_time / (static_cast<double>(num_workers) * makespan);
}

std::vector<double> SimReport::ResponseTimes(ClassFilter cf,
                                             ConstraintFilter kf) const {
  std::vector<double> out;
  for (const auto& job : jobs) {
    if (Matches(job, cf, kf)) out.push_back(job.response());
  }
  return out;
}

std::vector<double> SimReport::QueuingDelays(ClassFilter cf,
                                             ConstraintFilter kf) const {
  std::vector<double> out;
  for (const auto& job : jobs) {
    if (Matches(job, cf, kf)) out.push_back(job.queuing_delay);
  }
  return out;
}

PercentileSummary SimReport::ResponseSummary(ClassFilter cf,
                                             ConstraintFilter kf) const {
  return Summarize(ResponseTimes(cf, kf));
}

PercentileSummary SimReport::QueuingSummary(ClassFilter cf,
                                            ConstraintFilter kf) const {
  return Summarize(QueuingDelays(cf, kf));
}

std::size_t SimReport::CountJobs(ClassFilter cf, ConstraintFilter kf) const {
  std::size_t n = 0;
  for (const auto& job : jobs) {
    if (Matches(job, cf, kf)) ++n;
  }
  return n;
}

std::size_t SimReport::CountTasks(ClassFilter cf, ConstraintFilter kf) const {
  std::size_t n = 0;
  for (const auto& job : jobs) {
    if (Matches(job, cf, kf)) n += job.num_tasks;
  }
  return n;
}

void SimReport::CheckInvariants() const {
  for (const auto& job : jobs) {
    PHOENIX_CHECK_MSG(job.completion >= job.submit,
                      "job completed before it was submitted");
    PHOENIX_CHECK_MSG(job.queuing_delay >= 0, "negative queuing delay");
    PHOENIX_CHECK_MSG(job.max_task_wait >= job.queuing_delay - 1e-9,
                      "max task wait below mean task wait");
    PHOENIX_CHECK_MSG(job.num_tasks > 0, "job outcome with zero tasks");
    PHOENIX_CHECK_MSG(job.completion <= makespan + 1e-9,
                      "job completed after makespan");
  }
  PHOENIX_CHECK_MSG(total_busy_time >= 0, "negative busy time");
  if (num_workers > 0 && makespan > 0 && !packing_enabled) {
    // Vector packing runs several tasks per machine concurrently, so the
    // per-slot utilization bound only holds for single-slot runs.
    PHOENIX_CHECK_MSG(Utilization() <= 1.0 + 1e-9,
                      "utilization above 100% with single-slot workers");
  }
  if (packing_enabled) {
    PHOENIX_CHECK_MSG(
        packing_efficiency >= 0 && packing_efficiency <= 1.0 + 1e-9,
        "packing efficiency outside [0, 1]");
    PHOENIX_CHECK_MSG(fragmentation_time_avg >= -1e-9,
                      "negative fragmentation average");
    PHOENIX_CHECK_MSG(gang_wait_mean >= -1e-9, "negative gang wait");
  }
  if (deadline_enabled) {
    std::uint64_t tracked = 0;
    std::uint64_t attained = 0;
    for (std::size_t rank = 0; rank < 3; ++rank) {
      PHOENIX_CHECK_MSG(
          class_deadline_attained[rank] <= class_deadline_jobs[rank],
          "deadline attainment above the class job count");
      tracked += class_deadline_jobs[rank];
      attained += class_deadline_attained[rank];
    }
    PHOENIX_CHECK_MSG(tracked - attained == counters.deadline_misses,
                      "deadline misses disagree with the per-class slices");
  }
}

namespace {

class Fnv1a {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

constexpr std::size_t kCounterRows = 0
#define PHOENIX_COUNTER(group, type, name) +1
#include "metrics/counters.def"
#undef PHOENIX_COUNTER
    ;

// Every counter is a 64-bit integer or double, so the block is a padding-free
// array of one 8-byte word per counters.def row, and hashing its bytes covers
// each field exactly once.
static_assert(std::is_trivially_copyable_v<SchedulerCounters> &&
                  sizeof(SchedulerCounters) ==
                      sizeof(std::uint64_t) * kCounterRows,
              "SchedulerCounters must stay one 8-byte field per row");

}  // namespace

std::string Fingerprint(const SimReport& report) {
  Fnv1a counters;
  std::uint64_t words[sizeof(SchedulerCounters) / sizeof(std::uint64_t)];
  std::memcpy(words, &report.counters, sizeof words);
  for (const std::uint64_t w : words) counters.Add(w);

  Fnv1a outcomes;
  for (const JobOutcome& j : report.jobs) {
    outcomes.Add(static_cast<std::uint64_t>(j.id));
    outcomes.Add(j.submit);
    outcomes.Add(j.completion);
    outcomes.Add(j.queuing_delay);
    outcomes.Add(j.max_task_wait);
    outcomes.Add(static_cast<std::uint64_t>(j.num_tasks));
    outcomes.Add(static_cast<std::uint64_t>(j.short_class) << 1 |
                 static_cast<std::uint64_t>(j.constrained));
    outcomes.Add(static_cast<std::uint64_t>(j.tenant) << 8 | j.priority);
    outcomes.Add(static_cast<std::uint64_t>(j.racks_used));
    outcomes.Add(static_cast<std::uint64_t>(j.placement));
  }
  for (const TenantOutcome& t : report.tenants) {
    for (const std::uint64_t v :
         {t.jobs, t.admits, t.downgrades, t.rejects, t.slo_jobs,
          t.slo_attained, t.slo_at_risk, t.preemptions_issued,
          t.preemptions_suffered}) {
      outcomes.Add(v);
    }
    outcomes.Add(t.usage_seconds);
    outcomes.Add(t.peak_quota_fraction);
  }
  outcomes.Add(report.total_busy_time);
  outcomes.Add(report.makespan);
  outcomes.Add(report.active_machine_seconds);
  outcomes.Add(report.total_joules);
  return util::StrFormat("events=%llu counters=%016llx outcomes=%016llx",
                         static_cast<unsigned long long>(report.events_fired),
                         static_cast<unsigned long long>(counters.value()),
                         static_cast<unsigned long long>(outcomes.value()));
}

double SpeedupAtPercentile(const SimReport& treatment,
                           const SimReport& baseline, double percentile,
                           ClassFilter cf, ConstraintFilter kf) {
  auto t = treatment.ResponseTimes(cf, kf);
  auto b = baseline.ResponseTimes(cf, kf);
  const double tv = Percentile(t, percentile);
  const double bv = Percentile(b, percentile);
  if (tv <= 0) return 0;
  return bv / tv;
}

}  // namespace phoenix::metrics
