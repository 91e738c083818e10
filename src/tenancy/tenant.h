// Multi-tenant workload model: tenants, priority classes, quotas, SLOs.
//
// A tenant is a named principal that submits jobs with a priority class
// (prod / batch / best-effort), a machine-second quota, a cap on its share
// of the queued *constrained* work (the CRV-share quota — constrained
// supply is the scarce resource the paper is about), and an optional
// latency SLO target for its short jobs. The TenantRegistry holds the
// static specs plus the per-run accounting the admission and preemption
// policies read: committed quota, executed machine-seconds, queued
// constrained work, and the SLO / preemption counters that feed the
// per-tenant report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"

namespace phoenix::tenancy {

using TenantId = std::uint16_t;
/// Jobs without a tenant tag (every pre-tenancy trace) carry this id and
/// bypass tenant admission entirely.
inline constexpr TenantId kNoTenant = 0xffff;

/// Priority classes, ordered: a lower underlying value outranks a higher
/// one. Prod preempts best-effort; batch neither preempts nor is preempted.
enum class PriorityClass : std::uint8_t {
  kProd = 0,
  kBatch = 1,
  kBestEffort = 2,
};

inline constexpr std::uint8_t PriorityRank(PriorityClass c) {
  return static_cast<std::uint8_t>(c);
}

/// One step down the class ladder (best-effort is the floor).
PriorityClass Lowered(PriorityClass c);

struct TenantSpec {
  std::string name;
  PriorityClass priority = PriorityClass::kBatch;
  /// Fraction of fleet machine-seconds (over the configured quota window)
  /// this tenant may have committed at once. 0 = unlimited.
  double quota_share = 0.0;
  /// Max share of the cluster's queued constrained work. 0 = unlimited.
  double crv_share = 0.0;
  /// Short-job latency SLO: target max task wait, seconds. 0 = no SLO.
  double slo_target = 0.0;
};

/// Per-run mutable accounting for one tenant.
struct TenantState {
  /// Machine-seconds charged by admission and not yet released.
  double committed = 0;
  /// Highest committed/budget fraction observed (quota utilization).
  double peak_quota_fraction = 0;
  /// Executed machine-seconds attributed to this tenant.
  double usage_seconds = 0;
  /// Estimated machine-seconds of this tenant's constrained work currently
  /// sitting in worker queues (enqueue/dequeue balanced).
  double queued_constrained = 0;

  std::uint64_t jobs = 0;
  std::uint64_t admits = 0;
  std::uint64_t downgrades = 0;
  std::uint64_t rejects = 0;
  std::uint64_t slo_jobs = 0;
  std::uint64_t slo_attained = 0;
  std::uint64_t slo_at_risk = 0;
  std::uint64_t preemptions_issued = 0;
  std::uint64_t preemptions_suffered = 0;
};

/// Specs + accounting for every tenant of a run. Owned by the scheduler;
/// one instance per simulation, so parallel experiments never share state.
class TenantRegistry {
 public:
  TenantRegistry() = default;
  explicit TenantRegistry(std::vector<TenantSpec> specs);

  /// A registry with no tenants disables every tenancy code path.
  bool enabled() const { return !specs_.empty(); }
  std::size_t size() const { return specs_.size(); }

  /// True for ids that resolve to a configured tenant (kNoTenant and
  /// out-of-range tags from foreign traces are not "known").
  bool Known(TenantId id) const { return id < specs_.size(); }

  const TenantSpec& spec(TenantId id) const {
    PHOENIX_DCHECK(Known(id));
    return specs_[id];
  }
  TenantState& state(TenantId id) {
    PHOENIX_DCHECK(Known(id));
    return states_[id];
  }
  const TenantState& state(TenantId id) const {
    PHOENIX_DCHECK(Known(id));
    return states_[id];
  }

  /// Machine-second budget for `id` on a `fleet_size` fleet over `window`
  /// seconds; 0 means unlimited (no quota_share configured).
  double Budget(TenantId id, std::size_t fleet_size, double window) const;

  /// Commits `work` machine-seconds against the tenant's quota and records
  /// the post-charge utilization fraction (0 when `budget` is unlimited).
  /// Returns that fraction — the kTenantAdmit event payload the auditor's
  /// quota rule checks.
  double Charge(TenantId id, double work, double budget);
  /// Releases a prior charge (at job completion).
  void Release(TenantId id, double work);

  /// Constrained-queue accounting: est machine-seconds entering/leaving
  /// worker queues for this tenant's constrained jobs.
  void AdjustConstrainedQueued(TenantId id, double delta);
  /// Tenant's share of all queued constrained work (0 when none is queued).
  double ConstrainedShare(TenantId id) const;
  double total_queued_constrained() const { return total_queued_constrained_; }

 private:
  std::vector<TenantSpec> specs_;
  std::vector<TenantState> states_;
  double total_queued_constrained_ = 0;
};

}  // namespace phoenix::tenancy
