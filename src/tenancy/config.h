// Multi-tenant scheduling configuration.
//
// An empty tenant list disables the subsystem entirely: no admission gate,
// no preemption, no per-tenant accounting, and no extra RNG draws — the
// zero-tenant configuration is byte-identical to a build without tenancy.
#pragma once

#include <cstddef>
#include <vector>

#include "tenancy/tenant.h"

namespace phoenix::tenancy {

struct TenancyConfig {
  /// Tenant specs; a job's trace tag indexes this list. Empty = disabled.
  std::vector<TenantSpec> tenants;

  /// Prod-class work may kill-and-requeue a running best-effort task.
  bool preemption = true;

  /// Modeled restart cost, seconds added to a preempted task's re-run
  /// (checkpoint loss + container restart).
  static constexpr double preemption_restart_cost = 2.0;

  /// A task preempted this many times becomes immune (pairs with the
  /// slack_threshold starvation guard to bound best-effort starvation).
  std::size_t max_preemptions_per_task = 3;

  /// Horizon (seconds) a quota_share buys: a tenant with share q on an
  /// N-machine fleet may hold q * N * quota_window committed machine-seconds.
  static constexpr double quota_window = 120.0;

  bool enabled() const { return !tenants.empty(); }
};

}  // namespace phoenix::tenancy
