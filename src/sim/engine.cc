#include "sim/engine.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace phoenix::sim {

namespace {
// Purging pays one O(n) calendar sweep to drop ~n/3 of the entries; below
// this size the win is noise and the sweep would run on every few cancels.
constexpr std::size_t kMinTombstonesForPurge = 64;
// Initial calendar size; doubles whenever live events outgrow it.
constexpr std::size_t kInitialBuckets = 16;
// Growth stops here: beyond a few million buckets the day scan is already
// O(1) per event and the array itself becomes the cache problem.
constexpr std::size_t kMaxBuckets = std::size_t{1} << 22;
}  // namespace

Engine::Engine() : buckets_(kInitialBuckets) {}

Engine::EventId Engine::ScheduleAt(SimTime at, Callback cb) {
  PHOENIX_CHECK_MSG(at >= now_, "cannot schedule an event in the past");
  PHOENIX_CHECK_MSG(cb != nullptr, "null event callback");
  const EventId id = next_seq_++;
  pending_.Insert(id);
  const Key key{at, id, Store(std::move(cb))};
  const std::uint64_t day = DayOf(at);
  if (harvested_ && day <= current_day_) {
    // The event lands in the day being served (ScheduleAt(Now()) from
    // inside a callback, or a day the scan already passed): insertion-sort
    // it into the unserved tail. Its seq is larger than every entry already
    // there, so placing it after all entries with time <= at preserves the
    // global (time, seq) order.
    const auto it = std::upper_bound(
        ready_.begin() + static_cast<std::ptrdiff_t>(ready_head_),
        ready_.end(), at, [](SimTime t, const Key& k) { return t < k.time; });
    ready_.insert(it, key);
  } else {
    buckets_[day & (buckets_.size() - 1)].push_back(key);
    ++bucket_entries_;
    MaybeGrow();
  }
  return id;
}

std::uint32_t Engine::Store(Callback&& cb) {
  if (free_slots_.empty()) {
    PHOENIX_CHECK_MSG(
        callbacks_.size() < std::numeric_limits<std::uint32_t>::max(),
        "callback pool exhausted");
    callbacks_.push_back(std::move(cb));
    return static_cast<std::uint32_t>(callbacks_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  callbacks_[slot] = std::move(cb);
  return slot;
}

void Engine::Release(std::uint32_t slot) {
  callbacks_[slot] = nullptr;
  free_slots_.push_back(slot);
}

bool Engine::Cancel(EventId id) {
  if (!pending_.Erase(id)) return false;  // unknown, fired, or cancelled
  cancelled_.Insert(id);
  MaybePurge();
  return true;
}

void Engine::MaybeGrow() {
  if (buckets_.size() >= kMaxBuckets ||
      pending_.size() <= buckets_.size() * 2) {
    return;
  }
  // Collect every physical key (bucket shares plus the unserved ready_
  // tail), retune the day width to the observed span, and redistribute.
  // The next Step re-harvests from day(now_), so serving order is intact.
  std::vector<Key> all;
  all.reserve(pending_entries());
  for (auto& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
  }
  all.insert(all.end(),
             ready_.begin() + static_cast<std::ptrdiff_t>(ready_head_),
             ready_.end());
  ready_.clear();
  ready_head_ = 0;
  harvested_ = false;

  std::size_t nbuckets = buckets_.size();
  while (nbuckets < kMaxBuckets && pending_.size() > nbuckets * 2) {
    nbuckets *= 2;
  }
  if (!all.empty()) {
    SimTime lo = all.front().time;
    SimTime hi = lo;
    for (const Key& k : all) {
      lo = std::min(lo, k.time);
      hi = std::max(hi, k.time);
    }
    // Aim for ~2 events per day over the observed span, so a day's sort
    // stays tiny and a lap of the calendar covers a useful time range.
    const double span = hi - lo;
    if (span > 0) {
      width_ = std::max(span * 2.0 / static_cast<double>(all.size()), 1e-9);
    }
  }
  buckets_.clear();
  buckets_.resize(nbuckets);
  bucket_entries_ = all.size();
  for (const Key& k : all) {
    buckets_[DayOf(k.time) & (nbuckets - 1)].push_back(k);
  }
  current_day_ = DayOf(now_);
}

void Engine::MaybePurge() {
  if (cancelled_.size() < kMinTombstonesForPurge ||
      cancelled_.size() <= pending_.size() / 2) {
    return;
  }
  // Tombstones dominate: sweep them out in one pass, so cancel-heavy
  // workloads keep the calendar at O(live) instead of O(scheduled).
  //
  // Precondition (what makes clearing cancelled_ below safe even when this
  // runs from a callback mid-way through a harvested day): every id in
  // cancelled_ has exactly one physical key, and it sits in a bucket or in
  // the *unserved* ready_ tail. Cancel only tombstones pending ids (so the
  // key exists and has not been served), and Step reclaims any tombstone
  // it passes over, so none can hide in the served husk region
  // [0, ready_head_). The sweep therefore drops each tombstone (and
  // destroys its callback) exactly once, and afterwards the set can be
  // cleared with nothing left for the rest of the harvested run to
  // consult. Both are checked below.
  std::size_t dropped = 0;
  // Keeps the keys of [first, last) that are not tombstones at `out`.
  const auto sweep = [this, &dropped](auto first, auto last, auto out) {
    for (; first != last; ++first) {
      if (cancelled_.Contains(first->seq)) {
        Release(first->slot);
        ++dropped;
      } else {
        *out++ = *first;
      }
    }
    return out;
  };
  for (auto& bucket : buckets_) {
    const auto end = sweep(bucket.begin(), bucket.end(), bucket.begin());
    bucket_entries_ -= static_cast<std::size_t>(bucket.end() - end);
    bucket.erase(end, bucket.end());
  }
  // Compact the unserved ready_ tail in place (dropping served husks too).
  ready_.erase(sweep(ready_.begin() + static_cast<std::ptrdiff_t>(ready_head_),
                     ready_.end(), ready_.begin()),
               ready_.end());
  ready_head_ = 0;
  PHOENIX_CHECK_MSG(dropped == cancelled_.size(),
                    "purge dropped a different number of entries than there "
                    "are tombstones: a cancelled event was served, double-"
                    "counted, or physically lost");
  cancelled_.clear();
  ++compactions_;
  PHOENIX_CHECK(pending_entries() == pending_.size());
}

void Engine::Harvest() {
  auto& bucket = buckets_[current_day_ & (buckets_.size() - 1)];
  std::size_t w = 0;
  for (const Key& k : bucket) {
    if (DayOf(k.time) <= current_day_) {
      ready_.push_back(k);
    } else {
      bucket[w++] = k;
    }
  }
  bucket_entries_ -= bucket.size() - w;
  bucket.resize(w);
  std::sort(ready_.begin(), ready_.end(), [](const Key& a, const Key& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  });
  harvested_ = true;
}

void Engine::AdvanceToNextDay() {
  const std::size_t nbuckets = buckets_.size();
  std::size_t scanned = 0;
  for (;;) {
    const auto& bucket = buckets_[current_day_ & (nbuckets - 1)];
    bool has_current = false;
    for (const Key& k : bucket) {
      if (DayOf(k.time) <= current_day_) {
        has_current = true;
        break;
      }
    }
    if (has_current) break;
    ++current_day_;
    if (++scanned >= nbuckets) {
      // A full lap of empty days: the calendar is sparse here, so jump
      // straight to the earliest remaining day instead of walking to it.
      std::uint64_t min_day = ~std::uint64_t{0};
      for (const auto& b : buckets_) {
        for (const Key& k : b) min_day = std::min(min_day, DayOf(k.time));
      }
      current_day_ = min_day;
      break;
    }
  }
  Harvest();
}

std::uint64_t Engine::Run(SimTime until) {
  std::uint64_t fired = 0;
  while (Step(until)) ++fired;
  return fired;
}

bool Engine::Step(SimTime until) {
  for (;;) {
    while (ready_head_ < ready_.size()) {
      const Key key = ready_[ready_head_];
      if (cancelled_.Erase(key.seq)) {
        ++ready_head_;  // tombstone: reclaim and skip
        Release(key.slot);
        continue;
      }
      if (key.time > until) return false;
      ++ready_head_;
      pending_.Erase(key.seq);
      PHOENIX_CHECK_MSG(key.time >= now_, "event time went backwards");
      now_ = key.time;
      ++events_fired_;
      // Take the callback out of the pool before running it: it may
      // schedule events, which can reallocate the pool under it.
      Callback cb = std::move(callbacks_[key.slot]);
      free_slots_.push_back(key.slot);
      cb();
      return true;
    }
    ready_.clear();
    ready_head_ = 0;
    harvested_ = false;
    if (pending_.empty()) {
      // Nothing live: drop any straggler tombstones so the calendar is
      // physically empty too.
      if (bucket_entries_ > 0) {
        for (auto& bucket : buckets_) {
          for (const Key& k : bucket) Release(k.slot);
          bucket.clear();
        }
        bucket_entries_ = 0;
        cancelled_.clear();
      }
      current_day_ = DayOf(now_);
      return false;
    }
    AdvanceToNextDay();
  }
}

}  // namespace phoenix::sim
