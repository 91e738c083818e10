// Discrete-event simulation engine.
//
// A single-threaded event loop over a calendar queue keyed by
// (time, sequence). Sequence numbers make execution order deterministic for
// events scheduled at the same instant (FIFO in scheduling order), which in
// turn makes every experiment reproducible from its seed.
//
// Layout: the calendar holds 24-byte keys {time, seq, slot}, never the
// callbacks themselves. Keys live in power-of-two `buckets_` indexed by
// day & (buckets - 1), where a "day" is floor(time / width_). The loop
// drains one day at a time: the current day's keys are harvested out of
// their bucket into `ready_`, sorted once by (time, seq), and served in
// order. Events scheduled *into* the already-harvested day (the
// ScheduleAt(Now()) reentrancy case) are insertion-sorted into the unserved
// ready_ tail, so same-instant FIFO holds across bucket boundaries.
// Bucket count and day width adapt to the live population (doubling
// rebuilds), which changes only where keys physically sit — the served
// order is always the global (time, seq) order, bit-identical to a binary
// heap with the same tie-break.
//
// Callbacks sit in an engine-owned slot pool (`callbacks_` plus a free
// list) that a key names by index. A callback is moved into the pool once
// when scheduled and out of it once just before it fires; the sort, the
// same-day insertion (a memmove), the rebuilds and the purges move keys
// only. Most events land in the day being served, so shifting the ready_
// tail is the hot path, and a 24-byte key shifts as a plain memmove where a
// 64-byte callback needs an indirect call per move.
//
// Cancellation is O(1): the id is dropped from the `pending_` set and
// parked in the `cancelled_` tombstone set; the stale key is skipped (and
// its callback destroyed) when its day is served, and tombstones are
// purged wholesale once they outnumber half of the live events.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/simtime.h"
#include "util/check.h"
#include "util/flat_hash.h"
#include "util/inline_function.h"

namespace phoenix::sim {

class Engine {
 public:
  /// Small-buffer callable: the hot callbacks (task completions, probe
  /// resolutions, RPC deliveries) fit the inline capacity, so scheduling
  /// them never touches the allocator.
  using Callback = util::InlineFunction<void()>;

  /// Opaque handle for cancellation.
  using EventId = std::uint64_t;

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulation time. Valid inside callbacks and after Run* returns.
  SimTime Now() const { return now_; }

  /// Schedules `cb` to run at absolute time `at` (>= Now()).
  EventId ScheduleAt(SimTime at, Callback cb);

  /// Schedules `cb` to run `delay` seconds from now (delay >= 0).
  EventId ScheduleAfter(SimTime delay, Callback cb) {
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event. Returns true if the event had not yet fired.
  /// O(1): the live set drops the id and the calendar entry becomes a
  /// tombstone, purged wholesale once tombstones outnumber half the live
  /// events — so workloads that cancel heavily (probe siblings) cannot grow
  /// the calendar unboundedly.
  bool Cancel(EventId id);

  /// Runs until the event queue drains or `until` is reached, whichever is
  /// first. Returns the number of events fired by this call.
  std::uint64_t Run(SimTime until = kTimeInfinity);

  /// Runs exactly one event if any is pending before `until`.
  /// Returns true if an event fired.
  bool Step(SimTime until = kTimeInfinity);

  /// True if `id` was scheduled, has not fired, and is not cancelled.
  /// O(1) hash probe — safe on hot paths as well as audits.
  bool IsPending(EventId id) const { return pending_.Contains(id); }

  /// Ids of all live (scheduled, unfired, uncancelled) events, sorted.
  /// Snapshot for structural audits: one O(n log n) pass amortizes the
  /// per-worker pending checks at a heartbeat.
  std::vector<EventId> PendingIds() const;

  bool Empty() const { return pending_.empty(); }
  std::uint64_t events_fired() const { return events_fired_; }
  std::uint64_t events_scheduled() const { return next_seq_; }
  /// Calendar keys currently held, including not-yet-reclaimed tombstones
  /// (bounded by 1.5x the live count once purging kicks in).
  std::size_t pending_entries() const {
    return bucket_entries_ + (ready_.size() - ready_head_);
  }
  /// Times the calendar was swept to shed tombstones.
  std::uint64_t compactions() const { return compactions_; }

 private:
  // What the calendar sorts and shifts: trivially copyable, so moving one
  // is a plain copy and never dispatches through a callback.
  struct Key {
    SimTime time;
    std::uint64_t seq;   // doubles as EventId
    std::uint32_t slot;  // index of the event's callback in callbacks_
  };
  static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);

  // floor(at / width_), clamped so far-future sentinels cannot overflow the
  // day counter. Correctness only needs monotonicity in `at`: a clamped
  // day collapses the far future into one bucket that still sorts fully.
  std::uint64_t DayOf(SimTime at) const {
    const double day = at / width_;
    return day >= 9.0e18 ? static_cast<std::uint64_t>(9.0e18)
                         : static_cast<std::uint64_t>(day);
  }

  // Advances current_day_ to the next day holding any entry (one-lap scan,
  // then a direct min-day jump for sparse calendars) and harvests it.
  void AdvanceToNextDay();
  // Moves current_day_'s entries from their bucket into ready_, sorted.
  void Harvest();
  // Doubles the bucket array and retunes the day width once the live
  // population outgrows the calendar. Placement-only: serving order is
  // unaffected.
  void MaybeGrow();
  // Sweeps tombstoned keys out of the calendar when they dominate.
  void MaybePurge();

  // Moves `cb` into a free pool slot and returns its index.
  std::uint32_t Store(Callback&& cb);
  // Destroys a tombstone's callback and frees its slot.
  void Release(std::uint32_t slot);

  std::vector<std::vector<Key>> buckets_;
  std::size_t bucket_entries_ = 0;  // physical keys across buckets_
  double width_ = 1.0;              // day width, seconds
  std::uint64_t current_day_ = 0;
  // True once current_day_'s bucket share has been moved into ready_;
  // from then on, same-day arrivals insertion-sort into the ready_ tail.
  bool harvested_ = false;
  std::vector<Key> ready_;  // current day, (time, seq)-sorted
  std::size_t ready_head_ = 0;

  // Callback pool: one slot per calendar key; empty slots are on the free
  // list. The pool may reallocate whenever an event is scheduled, so a
  // callback is moved out before it runs.
  std::vector<Callback> callbacks_;
  std::vector<std::uint32_t> free_slots_;

  util::FlatHashSet pending_;    // scheduled, unfired, uncancelled
  util::FlatHashSet cancelled_;  // cancelled ids still in the calendar

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_fired_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace phoenix::sim
