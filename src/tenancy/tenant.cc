#include "tenancy/tenant.h"

#include <algorithm>

namespace phoenix::tenancy {

PriorityClass Lowered(PriorityClass c) {
  switch (c) {
    case PriorityClass::kProd: return PriorityClass::kBatch;
    case PriorityClass::kBatch: return PriorityClass::kBestEffort;
    case PriorityClass::kBestEffort: return PriorityClass::kBestEffort;
  }
  return PriorityClass::kBestEffort;
}

TenantRegistry::TenantRegistry(std::vector<TenantSpec> specs)
    : specs_(std::move(specs)), states_(specs_.size()) {
  for (const TenantSpec& s : specs_) {
    PHOENIX_CHECK_MSG(s.quota_share >= 0 && s.crv_share >= 0 &&
                          s.slo_target >= 0,
                      "tenant spec fields must be non-negative");
  }
  PHOENIX_CHECK_MSG(specs_.size() < kNoTenant,
                    "tenant id space exhausted");
}

double TenantRegistry::Budget(TenantId id, std::size_t fleet_size,
                              double window) const {
  const double share = spec(id).quota_share;
  if (share <= 0) return 0;
  return share * static_cast<double>(fleet_size) * window;
}

double TenantRegistry::Charge(TenantId id, double work, double budget) {
  TenantState& st = state(id);
  st.committed += work;
  if (budget <= 0) return 0;
  const double fraction = st.committed / budget;
  st.peak_quota_fraction = std::max(st.peak_quota_fraction, fraction);
  return fraction;
}

void TenantRegistry::Release(TenantId id, double work) {
  TenantState& st = state(id);
  st.committed -= work;
  // Float noise only; a genuinely negative balance is a charge/release bug.
  PHOENIX_DCHECK(st.committed > -1e-6);
  if (st.committed < 0) st.committed = 0;
}

void TenantRegistry::AdjustConstrainedQueued(TenantId id, double delta) {
  TenantState& st = state(id);
  st.queued_constrained = std::max(0.0, st.queued_constrained + delta);
  total_queued_constrained_ =
      std::max(0.0, total_queued_constrained_ + delta);
}

double TenantRegistry::ConstrainedShare(TenantId id) const {
  if (total_queued_constrained_ <= 0) return 0;
  return state(id).queued_constrained / total_queued_constrained_;
}

}  // namespace phoenix::tenancy
