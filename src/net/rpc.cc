#include "net/rpc.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace phoenix::net {

namespace {

MessageKind ReplyKind(MessageKind request) {
  return request == MessageKind::kFetchRequest ? MessageKind::kFetchReply
                                               : request;
}

}  // namespace

Rpc::Rpc(sim::Engine& engine, NetworkFabric& fabric, const RpcConfig& config)
    : engine_(engine), fabric_(fabric), config_(config) {}

double Rpc::AttemptDeadline(const Call& call) const {
  const double base = std::max(config_.timeout, 3.0 * call.nominal);
  return base * std::pow(config_.backoff, static_cast<double>(call.attempt));
}

Rpc::Call* Rpc::FindLive(CallId id) {
  if (id == 0) return nullptr;
  const std::uint32_t slot = SlotOf(id);
  if (slot >= slots_.size()) return nullptr;
  Call& call = slots_[slot];
  if (!call.live || call.generation != static_cast<std::uint32_t>(id >> 32)) {
    return nullptr;
  }
  return &call;
}

const Rpc::Call* Rpc::FindLive(CallId id) const {
  return const_cast<Rpc*>(this)->FindLive(id);
}

Rpc::CallId Rpc::Issue() {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Call& call = slots_[slot];
  // Reset everything except the generation, which outlives tenants so a
  // stale id held by a caller can never alias the slot's next occupant.
  call.round_trip = false;
  call.fast = false;
  call.attempt = 0;
  call.timer = 0;
  call.live = true;
  ++call.generation;
  // Skip 0 on wrap: generation 0 is the never-issued state (and id 0 is the
  // "no call" sentinel), so a slot that cycles through 2^32 tenants must not
  // mint ids indistinguishable from it.
  if (call.generation == 0) ++call.generation;
  return (static_cast<CallId>(call.generation) << 32) |
         static_cast<CallId>(slot + 1);
}

void Rpc::Release(std::uint32_t slot) {
  Call& call = slots_[slot];
  call.live = false;
  call.on_ok = nullptr;
  call.on_fail = nullptr;
  free_.push_back(slot);
}

Rpc::Call Rpc::TakeResolved(CallId id) {
  const std::uint32_t slot = SlotOf(id);
  Call taken = std::move(slots_[slot]);
  if (!taken.fast) engine_.Cancel(taken.timer);
  Release(slot);
  return taken;
}

void Rpc::Cancel(CallId id) {
  Call* call = FindLive(id);
  if (call == nullptr) return;
  engine_.Cancel(call->timer);
  Release(SlotOf(id));
  ++stats_.cancelled;
}

Rpc::CallId Rpc::Send(cluster::MachineId src, cluster::MachineId dst,
                      MessageKind kind, double nominal, Callback on_deliver,
                      Callback on_fail) {
  if (fabric_.FastPath()) {
    fabric_.SendCertain(src, dst, kind, nominal, std::move(on_deliver));
    return 0;
  }
  const CallId id = Issue();
  Call& call = slots_[SlotOf(id)];
  call.src = src;
  call.dst = dst;
  call.kind = kind;
  call.nominal = nominal;
  call.on_ok = std::move(on_deliver);
  call.on_fail = std::move(on_fail);
  ++stats_.calls;
  Attempt(id);
  return id;
}

Rpc::CallId Rpc::RoundTrip(cluster::MachineId src, cluster::MachineId dst,
                           MessageKind kind, double nominal_rtt,
                           Callback on_success, Callback on_fail) {
  const CallId id = Issue();
  Call& call = slots_[SlotOf(id)];
  call.src = src;
  call.dst = dst;
  call.kind = kind;
  call.nominal = nominal_rtt;
  call.round_trip = true;
  call.on_ok = std::move(on_success);
  call.on_fail = std::move(on_fail);
  if (fabric_.FastPath()) {
    // Delivery is certain: collapse both legs into the single engine event
    // the pre-fabric scheduler used, registered so Cancel/Alive still work
    // (a machine failure cancels the fetch through the call id).
    call.fast = true;
    call.timer = engine_.ScheduleAfter(nominal_rtt, [this, id] {
      if (FindLive(id) == nullptr) return;  // cancelled after the event fired
      Call resolved = TakeResolved(id);
      resolved.on_ok();
    });
    return id;
  }
  ++stats_.calls;
  Attempt(id);
  return id;
}

void Rpc::Attempt(CallId id) {
  {
    const Call& call = slots_[SlotOf(id)];
    if (!call.round_trip) {
      fabric_.Send(call.src, call.dst, call.kind, call.nominal,
                   [this, id]() -> bool {
                     if (FindLive(id) == nullptr) return false;  // stale
                     Call resolved = TakeResolved(id);
                     resolved.on_ok();
                     return true;
                   });
    } else {
      fabric_.Send(
          call.src, call.dst, call.kind, call.nominal / 2,
          [this, id]() -> bool {
            const Call* live = FindLive(id);
            if (live == nullptr) return false;  // request for a dead call
            // The request landed: send the reply leg. The call stays live
            // until the reply arrives (so a second request copy also
            // triggers a reply — dedup happens at reply arrival).
            fabric_.Send(live->dst, live->src, ReplyKind(live->kind),
                         live->nominal / 2, [this, id]() -> bool {
                           if (FindLive(id) == nullptr) return false;
                           Call resolved = TakeResolved(id);
                           resolved.on_ok();
                           return true;
                         });
            return true;
          });
    }
  }
  // Re-borrow: fabric_.Send only schedules, but keep the access pattern
  // safe against future reentrancy in the delivery path.
  Call& armed = slots_[SlotOf(id)];
  armed.timer = engine_.ScheduleAfter(AttemptDeadline(armed),
                                      [this, id] { OnTimeout(id); });
}

void Rpc::OnTimeout(CallId id) {
  Call* call = FindLive(id);
  if (call == nullptr) return;
  if (call->attempt >= config_.max_retries) {
    Call failed = std::move(*call);
    Release(SlotOf(id));
    ++stats_.failures;
    fabric_.EmitEvent(obs::EventType::kRpcFail, failed.dst,
                      static_cast<std::uint32_t>(failed.kind),
                      static_cast<double>(id));
    if (failed.on_fail) failed.on_fail();
    return;
  }
  ++call->attempt;
  ++stats_.retries;
  fabric_.EmitEvent(obs::EventType::kRpcRetry, call->dst,
                    static_cast<std::uint32_t>(call->kind),
                    static_cast<double>(id));
  Attempt(id);
}

}  // namespace phoenix::net
