// Unit tests for the discrete-event engine.
#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.h"
#include "util/rng.h"

namespace phoenix::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.Now(), 0.0);
  EXPECT_TRUE(e.Empty());
}

TEST(Engine, FiresEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(3.0, [&] { order.push_back(3); });
  e.ScheduleAt(1.0, [&] { order.push_back(1); });
  e.ScheduleAt(2.0, [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SameTimeEventsFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.ScheduleAt(5.0, [&order, i] { order.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, NowAdvancesToEventTime) {
  Engine e;
  double seen = -1;
  e.ScheduleAt(4.5, [&] { seen = e.Now(); });
  e.Run();
  EXPECT_DOUBLE_EQ(seen, 4.5);
  EXPECT_DOUBLE_EQ(e.Now(), 4.5);
}

TEST(Engine, ScheduleAfterUsesRelativeTime) {
  Engine e;
  double fired_at = -1;
  e.ScheduleAt(2.0, [&] {
    e.ScheduleAfter(3.0, [&] { fired_at = e.Now(); });
  });
  e.Run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Engine, NestedSchedulingWorks) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) e.ScheduleAfter(1.0, recurse);
  };
  e.ScheduleAt(0.0, recurse);
  e.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(e.Now(), 99.0);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine e;
  int fired = 0;
  e.ScheduleAt(1.0, [&] { ++fired; });
  e.ScheduleAt(2.0, [&] { ++fired; });
  e.ScheduleAt(3.0, [&] { ++fired; });
  EXPECT_EQ(e.Run(2.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(e.Empty());
  EXPECT_EQ(e.Run(), 1u);
  EXPECT_EQ(fired, 3);
}

TEST(Engine, StepFiresExactlyOne) {
  Engine e;
  int fired = 0;
  e.ScheduleAt(1.0, [&] { ++fired; });
  e.ScheduleAt(2.0, [&] { ++fired; });
  EXPECT_TRUE(e.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(e.Step());
}

TEST(Engine, StepRespectsUntil) {
  Engine e;
  e.ScheduleAt(5.0, [] {});
  EXPECT_FALSE(e.Step(4.0));
  EXPECT_TRUE(e.Step(5.0));
}

TEST(Engine, CancelPreventsFiring) {
  Engine e;
  int fired = 0;
  const auto id = e.ScheduleAt(1.0, [&] { ++fired; });
  EXPECT_TRUE(e.Cancel(id));
  e.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(e.Empty());
}

TEST(Engine, CancelTwiceReturnsFalse) {
  Engine e;
  const auto id = e.ScheduleAt(1.0, [] {});
  EXPECT_TRUE(e.Cancel(id));
  EXPECT_FALSE(e.Cancel(id));
  e.Run();
}

TEST(Engine, CancelUnknownIdReturnsFalse) {
  Engine e;
  EXPECT_FALSE(e.Cancel(12345));
}

TEST(Engine, CancelMiddleEventKeepsOthers) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(1.0, [&] { order.push_back(1); });
  const auto id = e.ScheduleAt(2.0, [&] { order.push_back(2); });
  e.ScheduleAt(3.0, [&] { order.push_back(3); });
  e.Cancel(id);
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Engine, CountsFiredAndScheduled) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.ScheduleAt(i, [] {});
  const auto id = e.ScheduleAt(10, [] {});
  e.Cancel(id);
  e.Run();
  EXPECT_EQ(e.events_scheduled(), 6u);
  EXPECT_EQ(e.events_fired(), 5u);
}

TEST(Engine, EmptyReflectsLiveEvents) {
  Engine e;
  EXPECT_TRUE(e.Empty());
  const auto id = e.ScheduleAt(1.0, [] {});
  EXPECT_FALSE(e.Empty());
  e.Cancel(id);
  EXPECT_TRUE(e.Empty());
}

TEST(Engine, EventMayScheduleAtCurrentTime) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(1.0, [&] {
    order.push_back(1);
    e.ScheduleAt(1.0, [&] { order.push_back(2); });
  });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EngineDeathTest, SchedulingInPastAborts) {
  Engine e;
  e.ScheduleAt(5.0, [] {});
  e.Run();
  EXPECT_DEATH(e.ScheduleAt(1.0, [] {}), "past");
}

TEST(EngineDeathTest, NullCallbackAborts) {
  Engine e;
  EXPECT_DEATH(e.ScheduleAt(1.0, Engine::Callback()), "null");
}

TEST(Engine, CompactsTombstonesWhenCancellationsDominate) {
  Engine e;
  std::vector<Engine::EventId> ids;
  const std::size_t n = 2000;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(e.ScheduleAt(static_cast<double>(i), [] {}));
  }
  // Cancel 90 % without popping anything: tombstones pile up in the heap
  // until the cancelled count crosses half the live count, at which point
  // the engine must rebuild instead of carrying them to the end of the run.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 10 != 0) cancelled += e.Cancel(ids[i]);
  }
  const std::size_t live = n - cancelled;
  EXPECT_GT(e.compactions(), 0u);
  // Post-compaction bound: live entries plus at most live/2 fresh
  // tombstones (plus the compaction floor of 64).
  EXPECT_LE(e.pending_entries(), live + live / 2 + 64);
  EXPECT_EQ(e.Run(), live);
  EXPECT_TRUE(e.Empty());
}

TEST(Engine, CompactionPreservesOrderAndPendingEvents) {
  Engine e;
  std::vector<double> fired;
  std::vector<Engine::EventId> ids;
  for (std::size_t i = 0; i < 600; ++i) {
    const double t = static_cast<double>((i * 7919) % 997);
    ids.push_back(
        e.ScheduleAt(t, [&fired, &e] { fired.push_back(e.Now()); }));
  }
  for (std::size_t i = 0; i < 600; ++i) {
    if (i % 4 != 0) e.Cancel(ids[i]);
  }
  ASSERT_GT(e.compactions(), 0u);
  e.Run();
  EXPECT_EQ(fired.size(), 150u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

// Same-instant arrivals from inside a callback land in the tail of the
// already-harvested ready run: the eight pre-scheduled events fire first in
// schedule order, then their reentrant same-time children, also in order.
TEST(Engine, SameInstantFifoWithReentrantArrivals) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    e.ScheduleAt(2.0, [&order, &e, i] {
      order.push_back(i);
      e.ScheduleAt(2.0, [&order, i] { order.push_back(100 + i); });
    });
  }
  e.Run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[8 + i], 100 + i);
}

// A same-instant cohort interleaved with enough spread-out events to force
// several bucket doublings (growth triggers past 2x the bucket count, which
// starts at 16) must still fire in schedule order: rebuilds move entries
// between buckets but never perturb the (time, seq) serving order.
TEST(Engine, SameInstantFifoSurvivesCalendarGrowth) {
  Engine e;
  std::vector<int> cohort;
  std::uint64_t spread_fired = 0;
  for (int i = 0; i < 512; ++i) {
    e.ScheduleAt(static_cast<double>((i * 13) % 4096) + 0.5,
                 [&spread_fired] { ++spread_fired; });
    e.ScheduleAt(1000.25, [&cohort, i] { cohort.push_back(i); });
  }
  e.Run();
  EXPECT_EQ(spread_fired, 512u);
  ASSERT_EQ(cohort.size(), 512u);
  for (int i = 0; i < 512; ++i) EXPECT_EQ(cohort[i], i);
  EXPECT_EQ(e.events_fired(), 1024u);
}

// Reentrant scheduling into a day the scan has already served: an event at
// day 7 schedules a same-day follower later than Now() plus a next-day
// event; both must fire, in time order, and Now() must track them.
TEST(Engine, ReentrantScheduleIntoServedDayFires) {
  Engine e;
  std::vector<double> fired;
  e.ScheduleAt(7.25, [&] {
    e.ScheduleAt(7.75, [&] { fired.push_back(e.Now()); });
    e.ScheduleAt(8.5, [&] { fired.push_back(e.Now()); });
    fired.push_back(e.Now());
  });
  e.Run();
  EXPECT_EQ(fired, (std::vector<double>{7.25, 7.75, 8.5}));
}

// Chained ScheduleAt(Now()) reentrancy: each event schedules its successor
// at the identical instant. The chain must fully drain at one simulated
// time, in creation order, without starving the later event at t = 9.
TEST(Engine, ChainedSameInstantReentrancyDrainsBeforeAdvancing) {
  Engine e;
  std::vector<int> order;
  int depth = 0;
  e.ScheduleAt(3.0, [&] {
    struct Recur {
      Engine& e;
      std::vector<int>& order;
      int& depth;
      void operator()() {
        order.push_back(depth);
        if (++depth < 50) {
          e.ScheduleAt(e.Now(), Recur{e, order, depth});
        }
      }
    };
    Recur{e, order, depth}();
  });
  bool later_saw_chain_done = false;
  e.ScheduleAt(9.0, [&] { later_saw_chain_done = depth == 50; });
  e.Run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
  EXPECT_TRUE(later_saw_chain_done);
}

// Cancelling a not-yet-served same-instant sibling from inside a callback
// must suppress it even though it already sits in the harvested ready run.
TEST(Engine, CancelSameInstantSiblingFromCallback) {
  Engine e;
  std::vector<int> order;
  Engine::EventId victim = 0;
  e.ScheduleAt(4.0, [&] {
    order.push_back(0);
    EXPECT_TRUE(e.Cancel(victim));
    EXPECT_FALSE(e.IsPending(victim));
  });
  victim = e.ScheduleAt(4.0, [&] { order.push_back(1); });
  e.ScheduleAt(4.0, [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(e.events_fired(), 2u);
}

// PendingIds() is a sorted exact snapshot of the live set, immune to
// tombstones still parked in the calendar.
TEST(Engine, PendingIdsIsSortedLiveSnapshot) {
  Engine e;
  std::vector<Engine::EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(e.ScheduleAt(static_cast<double>(i % 17), [] {}));
  }
  std::vector<Engine::EventId> expect;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 3 == 0) {
      e.Cancel(ids[i]);
    } else {
      expect.push_back(ids[i]);
    }
  }
  std::sort(expect.begin(), expect.end());
  const auto live = e.PendingIds();
  EXPECT_TRUE(std::is_sorted(live.begin(), live.end()));
  EXPECT_EQ(live, expect);
  for (const auto id : live) EXPECT_TRUE(e.IsPending(id));
}

// Cancel-during-served-day ordering: an early event in a harvested day
// cancels enough of the day's unserved ready tail to cross the purge
// threshold. The purge compacts ready_ and clears the tombstone set while
// the day is still being served — the survivors must still fire exactly
// once, in schedule order, and nothing cancelled may fire.
TEST(Engine, CancelInServedDayTailThenPurgeFromCallback) {
  Engine e;
  std::vector<int> order;
  std::vector<Engine::EventId> tail;
  const int n = 200;
  // One trigger plus n same-instant followers: all land in one harvested
  // ready run, so the cancels below hit the unserved tail specifically.
  e.ScheduleAt(5.0, [&] {
    order.push_back(-1);
    std::size_t cancelled = 0;
    for (int i = 0; i < n; ++i) {
      if (i % 4 != 0) cancelled += e.Cancel(tail[static_cast<std::size_t>(i)]);
    }
    ASSERT_EQ(cancelled, 150u);
    // 150 tombstones vs 50 live: the purge must have run already.
    EXPECT_GT(e.compactions(), 0u);
  });
  for (int i = 0; i < n; ++i) {
    tail.push_back(e.ScheduleAt(5.0, [&order, i] { order.push_back(i); }));
  }
  e.Run();
  ASSERT_EQ(order.size(), 51u);
  EXPECT_EQ(order[0], -1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i + 1)], i * 4);
  EXPECT_TRUE(e.Empty());
}

// Purge-mid-harvest with the calendar still populated: the cancels span the
// harvested day's tail AND future-day buckets, and after the purge (which
// resets ready_head_ to 0 and clears the tombstones) the same callback
// schedules fresh same-instant arrivals. Serving order must hold across the
// compacted run, the reentrant insertions, and the later days.
TEST(Engine, PurgeMidHarvestKeepsTailAndFutureDaysConsistent) {
  Engine e;
  std::vector<double> fired;
  std::vector<Engine::EventId> today, future;
  e.ScheduleAt(3.0, [&] {
    fired.push_back(e.Now());
    // Cancel half of today's unserved tail and most of the future days.
    for (std::size_t i = 0; i < today.size(); ++i) {
      if (i % 2 == 0) e.Cancel(today[i]);
    }
    for (std::size_t i = 0; i < future.size(); ++i) {
      if (i % 8 != 0) e.Cancel(future[i]);
    }
    EXPECT_GT(e.compactions(), 0u);
    // Post-purge reentrancy: the purge just reset the serving cursor; a
    // same-instant arrival must still slot at the cursor (after every
    // entry with time <= Now()) and fire before the day's later entries.
    // It logs Now() + epsilon so the sortedness check pins its position.
    e.ScheduleAt(e.Now(), [&] { fired.push_back(e.Now() + 0.0001); });
  });
  for (int i = 0; i < 40; ++i) {
    today.push_back(e.ScheduleAt(3.0 + 0.001 * (i + 1),
                                 [&] { fired.push_back(e.Now()); }));
  }
  for (int i = 0; i < 200; ++i) {
    future.push_back(e.ScheduleAt(10.0 + static_cast<double>(i),
                                  [&] { fired.push_back(e.Now()); }));
  }
  e.Run();
  // Survivors: trigger + reentrant child + 20 odd-indexed today + 25 future.
  EXPECT_EQ(fired.size(), 1u + 1u + 20u + 25u);
  EXPECT_EQ(e.events_fired(), fired.size());
  // The reentrant same-instant child fired before any strictly-later entry:
  // fired[] is sorted under the +0.0001 marker it logged for itself.
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_TRUE(e.Empty());
}

// ---- callback ownership: the engine's slot pool -------------------------

// A callback that counts its own lifetime. A move hands the "armed" mark to
// the new instance, so each logical callback has exactly one armed instance
// and `destroyed[id]` counts how often that one was destroyed. The mark is
// not cleared on destruction: destroying the same instance twice counts 2.
struct Counted {
  static inline int live = 0;  // instances in existence, armed or not
  static inline std::map<int, int> fired;
  static inline std::map<int, int> destroyed;
  int id;
  bool armed = true;
  explicit Counted(int i) : id(i) { ++live; }
  Counted(Counted&& other) noexcept : id(other.id), armed(other.armed) {
    other.armed = false;
    ++live;
  }
  Counted(const Counted&) = delete;
  ~Counted() {
    --live;
    if (armed) ++destroyed[id];
  }
  void operator()() const { ++fired[id]; }
  static void Reset() {
    live = 0;
    fired.clear();
    destroyed.clear();
  }
};

// Every callback is destroyed exactly once: after it fires, when its
// tombstone is skipped, when a purge drops it mid-harvest, or with the
// engine while still pending.
TEST(Engine, EveryCallbackIsDestroyedExactlyOnce) {
  Counted::Reset();
  constexpr int kSkipped = 1000;
  constexpr int kPending = 1001;
  constexpr int kTail = 200;    // ids 0..199: the purged day's tail
  constexpr int kRefill = 300;  // ids 3000..3299: scheduled after the purge
  {
    Engine e;
    std::vector<Engine::EventId> tail;
    // A trigger at t=5 cancels 150 of its 200 same-instant followers. The
    // cancel that crosses the purge threshold sweeps every tombstone so far
    // out while the day is being served; the later ones are skipped.
    e.ScheduleAt(5.0, [&] {
      int purged_through = -1;
      for (int i = 0; i < kTail; ++i) {
        if (i % 4 == 0) continue;
        e.Cancel(tail[static_cast<std::size_t>(i)]);
        if (purged_through < 0 && e.compactions() > 0) {
          purged_through = i;
          for (int j = 0; j <= i; ++j) {
            if (j % 4 != 0) {
              EXPECT_EQ(Counted::destroyed[j], 1) << j;
            }
          }
        }
      }
      EXPECT_GT(purged_through, 0);
      EXPECT_LT(purged_through, kTail - 1);
      // Fresh events reuse the purged slots (a slot freed twice would be
      // handed out twice, and one of its two callbacks lost).
      for (int i = 0; i < kRefill; ++i) e.ScheduleAt(5.5, Counted(3000 + i));
    });
    for (int i = 0; i < kTail; ++i) {
      tail.push_back(e.ScheduleAt(5.0, Counted(i)));
    }
    // A lone tombstone (too few to purge), cancelled after the purge, is
    // skipped when its day is served. The live event after it fans out
    // three followers, which take the most recently freed slots: its own
    // and the tombstone's (a slot freed twice would be handed out twice).
    const Engine::EventId skipped = e.ScheduleAt(7.0, Counted(kSkipped));
    e.ScheduleAt(6.0, [&e, skipped] { EXPECT_TRUE(e.Cancel(skipped)); });
    e.ScheduleAt(7.0, [&e] {
      for (const int id : {2000, 2001, 2002}) e.ScheduleAt(8.0, Counted(id));
    });
    e.ScheduleAt(100.0, Counted(kPending));
    e.Run(50.0);
    EXPECT_EQ(Counted::destroyed[kSkipped], 1);
    EXPECT_EQ(Counted::fired.count(kSkipped), 0u);
    EXPECT_EQ(Counted::destroyed[kPending], 0);
    EXPECT_EQ(e.PendingIds().size(), 1u);
  }
  EXPECT_EQ(Counted::live, 0);
  for (int i = 0; i < kTail; ++i) {
    EXPECT_EQ(Counted::fired[i], i % 4 == 0 ? 1 : 0) << i;
  }
  for (int i = 0; i < kRefill; ++i) EXPECT_EQ(Counted::fired[3000 + i], 1) << i;
  for (const int id : {2000, 2001, 2002}) {
    EXPECT_EQ(Counted::fired[id], 1) << id;
  }
  EXPECT_EQ(Counted::fired.count(kPending), 0u);
  EXPECT_EQ(Counted::destroyed.size(), kTail + kRefill + 5u);
  for (const auto& [id, times] : Counted::destroyed) {
    EXPECT_EQ(times, 1) << "callback " << id;
  }
}

// A running callback may schedule enough events to reallocate the pool it
// was taken from; its own captures must stay intact while it runs. The
// destructor scribbles over `magic`, so a callback destroyed (or moved
// away) mid-run reads back the scribble.
struct FanOut {
  static constexpr std::uint64_t kMagic = 0x5eed5eed5eed5eedULL;
  Engine* e;
  int* fired;
  std::uint64_t magic = kMagic;
  FanOut(Engine* engine, int* count) : e(engine), fired(count) {}
  FanOut(FanOut&& other) noexcept
      : e(other.e), fired(other.fired), magic(other.magic) {}
  ~FanOut() { magic = 0; }
  void operator()() {
    for (int i = 0; i < 4096; ++i) {
      e->ScheduleAt(e->Now() + (i % 3), [f = fired] { ++*f; });
    }
    EXPECT_EQ(magic, kMagic) << "callback destroyed while it ran";
    ++*fired;
  }
};

TEST(Engine, CallbackSurvivesPoolGrowthWhileRunning) {
  Engine e;
  int fired = 0;
  e.ScheduleAt(1.0, FanOut(&e, &fired));
  EXPECT_EQ(e.Run(), 4097u);
  EXPECT_EQ(fired, 4097);
}

// Captures beyond InlineFunction's inline buffer take the heap path; they
// must fire in (time, seq) order alongside inline ones and be freed when
// cancelled.
TEST(Engine, OversizedCapturesFireInOrder) {
  std::array<std::uint64_t, 16> big{};
  static_assert(sizeof(big) > Engine::Callback::kInlineBytes);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * i;
  Engine e;
  std::vector<std::uint64_t> seen;
  e.ScheduleAt(2.0, [&seen, big] { seen.push_back(big[15]); });
  e.ScheduleAt(1.0, [&seen] { seen.push_back(1); });
  e.Cancel(e.ScheduleAt(1.5, [&seen, big] { seen.push_back(big[3]); }));
  e.ScheduleAt(2.0, [&seen, big] { seen.push_back(big[7]); });
  e.Run();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 225, 49}));
}

// Differential stress: random schedule/cancel traffic — including cancels
// and same-day schedules issued from inside callbacks, which is where the
// purge can run mid-harvest — must fire exactly the never-cancelled events
// in (time, schedule-order) sequence, matching a naive reference model.
class EnginePurgeStressTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EnginePurgeStressTest, ReentrantCancelStormMatchesReferenceModel) {
  util::Rng rng(GetParam());
  Engine e;
  struct Ref {
    double time;
    std::uint64_t seq;
    bool cancelled = false;
  };
  std::vector<Ref> ref;          // reference model, indexed by spawn order
  std::vector<Engine::EventId> ids;
  std::vector<std::uint64_t> fired;
  // The callback body: log the firing, then randomly cancel a batch of
  // still-pending events (possibly in the current day's tail) and schedule
  // a few followers at Now() or later.
  struct Act {
    Engine& e;
    util::Rng& rng;
    std::vector<Ref>& ref;
    std::vector<Engine::EventId>& ids;
    std::vector<std::uint64_t>& fired;
    std::uint64_t self;
    void operator()() const {
      fired.push_back(self);
      for (int k = 0; k < 12; ++k) {
        const std::size_t victim =
            static_cast<std::size_t>(rng.Uniform(0.0, 1.0) *
                                     static_cast<double>(ids.size()));
        if (victim < ids.size() && e.Cancel(ids[victim])) {
          ref[victim].cancelled = true;
        }
      }
      if (ref.size() < 3000 && rng.Bernoulli(0.5)) {
        const double t = e.Now() + (rng.Bernoulli(0.5)
                                        ? 0.0
                                        : rng.Uniform(0.0, 5.0));
        const std::uint64_t seq = ref.size();
        ids.push_back(e.ScheduleAt(
            t, Act{e, rng, ref, ids, fired, seq}));
        ref.push_back(Ref{t, seq});
      }
    }
  };
  for (int i = 0; i < 1500; ++i) {
    const double t = rng.Uniform(0.0, 50.0);
    const std::uint64_t seq = ref.size();
    ids.push_back(e.ScheduleAt(t, Act{e, rng, ref, ids, fired, seq}));
    ref.push_back(Ref{t, seq});
  }
  e.Run();
  EXPECT_TRUE(e.Empty());
  // Reference serving order: (time, seq) over never-cancelled events. A
  // cancelled flag in ref was only set when Engine::Cancel succeeded, so
  // both models agree by construction on *which* events survive; the test
  // is that the engine fired them all, once each, in the right order.
  std::vector<std::uint64_t> expect;
  for (const Ref& r : ref) {
    if (!r.cancelled) expect.push_back(r.seq);
  }
  std::sort(expect.begin(), expect.end(),
            [&ref](std::uint64_t a, std::uint64_t b) {
              return ref[a].time != ref[b].time ? ref[a].time < ref[b].time
                                                : a < b;
            });
  EXPECT_EQ(fired, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePurgeStressTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// Property sweep: random schedule/cancel workloads preserve global time
// ordering and fire exactly the non-cancelled events.
class EnginePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EnginePropertyTest, RandomWorkloadIsOrderedAndExact) {
  util::Rng rng(GetParam());
  Engine e;
  std::vector<Engine::EventId> ids;
  std::vector<double> fired_times;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const double t = rng.Uniform(0.0, 100.0);
    ids.push_back(e.ScheduleAt(t, [&fired_times, &e] {
      fired_times.push_back(e.Now());
    }));
  }
  // Cancel ~25 % of them.
  std::size_t cancelled = 0;
  for (const auto id : ids) {
    if (rng.Bernoulli(0.25)) cancelled += e.Cancel(id);
  }
  e.Run();
  EXPECT_EQ(fired_times.size(), n - cancelled);
  EXPECT_TRUE(std::is_sorted(fired_times.begin(), fired_times.end()));
  EXPECT_EQ(e.events_fired(), n - cancelled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace phoenix::sim
