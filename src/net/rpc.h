// Reliable delivery on top of the NetworkFabric.
//
// The fabric is a lossy datagram layer; Rpc adds the sender-side reliability
// the scheduler needs so chaos injection degrades latency instead of
// stranding work:
//
//   * Send — at-least-once one-way delivery with a per-attempt timeout,
//     bounded retries, and exponential backoff. The receiver callback runs
//     exactly once (first arrival wins; duplicate and post-resolution
//     arrivals are expired). When every attempt times out, on_fail runs and
//     the caller re-covers the work (the scheduler re-dispatches the entry,
//     which is what makes "zero lost jobs under drop" structural).
//   * RoundTrip — a collapsed request/reply exchange (src -> dst -> src),
//     two fabric messages per attempt under one deadline. Used for the
//     late-binding fetch that holds a worker slot; the call id is the
//     slot's cancellable handle (machine failure cancels the call the same
//     way it used to cancel the bare engine event).
//
// Fast path: while the fabric guarantees delivery (FastPath()), Send posts
// the message with no call bookkeeping and RoundTrip schedules a single
// engine event — preserving byte-identical behavior with chaos disabled.
//
// Call records live in a slot pool (vector + free list) rather than a node
// map: a call id packs (generation << 32 | slot + 1), so Alive/Cancel are
// two array reads and issuing a call on the hot fetch path reuses a slot
// with no allocation. Generations make stale ids (kept by a worker whose
// call resolved long ago) miss instead of aliasing the slot's new tenant.
#pragma once

#include <cstdint>
#include <vector>

#include "net/fabric.h"
#include "sim/engine.h"

namespace phoenix::net {

struct RpcConfig {
  /// Base per-attempt deadline, seconds. The effective deadline is
  /// max(timeout, 3 x nominal transit) so a latency sweep cannot push every
  /// attempt into spurious timeout.
  static constexpr double timeout = 0.01;
  /// Retries after the first attempt (total attempts = max_retries + 1).
  std::size_t max_retries = 3;
  /// Deadline multiplier per retry (exponential backoff).
  static constexpr double backoff = 2.0;
};

struct RpcStats {
  std::uint64_t calls = 0;     // reliable calls issued (fast path excluded)
  std::uint64_t retries = 0;   // attempts beyond the first
  std::uint64_t failures = 0;  // calls that exhausted every attempt
  std::uint64_t cancelled = 0;
};

class Rpc {
 public:
  /// Live-call handle; 0 means "no call" (fast-path sends return it).
  /// Packs (generation << 32) | (slot index + 1).
  using CallId = std::uint64_t;
  /// Caller continuations ride the engine's allocation-free callback type.
  using Callback = sim::Engine::Callback;

  Rpc(sim::Engine& engine, NetworkFabric& fabric, const RpcConfig& config);

  Rpc(const Rpc&) = delete;
  Rpc& operator=(const Rpc&) = delete;

  /// At-least-once one-way delivery of a `kind` message to `dst`.
  /// `on_deliver` runs at the first arrival; `on_fail` runs if max_retries
  /// attempts all time out. Returns 0 on the fast path (delivery certain,
  /// nothing to cancel).
  CallId Send(cluster::MachineId src, cluster::MachineId dst,
              MessageKind kind, double nominal, Callback on_deliver,
              Callback on_fail);

  /// Request/reply round trip (src -> dst -> src) with total nominal
  /// transit `nominal_rtt` (each leg pays half). `on_success` runs at reply
  /// arrival, `on_fail` after exhausted retries. Always returns a live call
  /// id — callers park a worker slot on it and must Cancel on failure of
  /// the slot's machine.
  CallId RoundTrip(cluster::MachineId src, cluster::MachineId dst,
                   MessageKind kind, double nominal_rtt, Callback on_success,
                   Callback on_fail);

  /// True while the call is unresolved (its deadline or delivery event is
  /// live in the engine) — the audit's "busy slot has a live event" proof.
  bool Alive(CallId id) const { return FindLive(id) != nullptr; }

  /// Cancels a live call: the timer dies now, in-flight messages expire on
  /// arrival, and no callback ever runs. No-op for resolved calls.
  void Cancel(CallId id);

  const RpcStats& stats() const { return stats_; }
  const RpcConfig& config() const { return config_; }

  /// Test-only: plants `generation` on an existing (freed) slot so tests can
  /// exercise the 2^32 generation wrap without issuing four billion calls.
  void SetGenerationForTest(std::uint32_t slot, std::uint32_t generation) {
    slots_[slot].generation = generation;
  }

 private:
  struct Call {
    cluster::MachineId src = kControllerNode;
    cluster::MachineId dst = kControllerNode;
    MessageKind kind = MessageKind::kProbe;
    double nominal = 0;
    bool round_trip = false;
    /// Fast-path round trip: `timer` is the delivery event itself, not a
    /// deadline (and must not be cancelled when it resolves the call).
    bool fast = false;
    /// Slot is occupied by an unresolved call.
    bool live = false;
    std::size_t attempt = 0;
    /// Bumped each time the slot is (re)issued; part of the call id.
    std::uint32_t generation = 0;
    sim::Engine::EventId timer = 0;
    Callback on_ok;
    Callback on_fail;
  };

  static std::uint32_t SlotOf(CallId id) {
    return static_cast<std::uint32_t>(id) - 1;
  }

  /// Slot lookup with generation check; nullptr for resolved/stale ids.
  Call* FindLive(CallId id);
  const Call* FindLive(CallId id) const;

  /// Takes a slot from the free list (or grows the pool), bumps its
  /// generation, and returns the new id. The slot's callbacks are empty.
  CallId Issue();

  /// Detaches a resolving call: cancels its timer (reliable calls only),
  /// releases the slot to the free list, and returns the record by move so
  /// callbacks can run after the pool mutation is complete.
  Call TakeResolved(CallId id);

  void Release(std::uint32_t slot);

  /// Sends the call's message(s) for the current attempt and arms the
  /// attempt deadline.
  void Attempt(CallId id);
  void OnTimeout(CallId id);
  double AttemptDeadline(const Call& call) const;

  sim::Engine& engine_;
  NetworkFabric& fabric_;
  RpcConfig config_;
  std::vector<Call> slots_;
  std::vector<std::uint32_t> free_;
  RpcStats stats_;
};

}  // namespace phoenix::net
