#include "sim/engine.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace phoenix::sim {

namespace {
// Purging pays one O(n) calendar sweep to drop ~n/3 of the keys; below
// this size the win is noise and the sweep would run on every few cancels.
constexpr std::size_t kMinStaleForPurge = 64;
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
  const std::uint32_t slot = Store(std::move(cb));
  const Key key{at, next_seq_++, slot, generations_[slot]};
  ++live_;
  const std::uint64_t day = DayOf(at);
  if (harvested_ && day <= current_day_) {
    // The event lands in the day being served (ScheduleAt(Now()) from
    // inside a callback, or a day the scan already passed): stage it for
    // the next fold into the unserved tail.
    staged_.push_back(key);
  } else {
    buckets_[day & (buckets_.size() - 1)].push_back(key);
    ++bucket_entries_;
    MaybeGrow();
  }
  return (std::uint64_t{key.gen} << 32) | (std::uint64_t{slot} + 1);
}

std::uint32_t Engine::Store(Callback&& cb) {
  if (free_slots_.empty()) {
    PHOENIX_CHECK_MSG(
        callbacks_.size() < std::numeric_limits<std::uint32_t>::max(),
        "callback pool exhausted");
    callbacks_.push_back(std::move(cb));
    generations_.push_back(1);
    return static_cast<std::uint32_t>(callbacks_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  callbacks_[slot] = std::move(cb);
  return slot;
}

void Engine::Retire(std::uint32_t slot) {
  std::uint32_t& gen = generations_[slot];
  if (++gen == 0) gen = 1;  // 0 is never issued, so no id is 0
  free_slots_.push_back(slot);
}

bool Engine::Cancel(EventId id) {
  if (!IsPending(id)) return false;  // unknown, fired, or cancelled
  const std::uint32_t slot = static_cast<std::uint32_t>(id) - 1;
  callbacks_[slot] = nullptr;
  Retire(slot);
  --live_;
  ++stale_;
  MaybePurge();
  return true;
}

void Engine::FoldStaged() {
  // Every staged seq exceeds every tail seq, so once the staging run is in
  // (time, seq) order a tail key goes after a staged key exactly when its
  // time is later: merging from the back moves only those. With one staged
  // key this is a plain insertion into the tail.
  std::sort(staged_.begin(), staged_.end(), Earlier);
  std::size_t tail = ready_.size();
  std::size_t out = tail + staged_.size();
  ready_.resize(out);
  for (std::size_t s = staged_.size(); s > 0;) {
    if (tail > ready_head_ && staged_[s - 1].time < ready_[tail - 1].time) {
      ready_[--out] = ready_[--tail];
    } else {
      ready_[--out] = staged_[--s];
    }
  }
  staged_.clear();
}

void Engine::MaybeGrow() {
  if (buckets_.size() >= kMaxBuckets || live_ <= buckets_.size() * 2) {
    return;
  }
  // Collect every physical key (bucket shares, the unserved ready_ tail and
  // the staging run), retune the day width to the observed span, and
  // redistribute. The next Step re-harvests from day(now_), so serving
  // order is intact.
  std::vector<Key> all;
  all.reserve(pending_entries());
  for (auto& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
  }
  all.insert(all.end(),
             ready_.begin() + static_cast<std::ptrdiff_t>(ready_head_),
             ready_.end());
  all.insert(all.end(), staged_.begin(), staged_.end());
  ready_.clear();
  ready_head_ = 0;
  staged_.clear();
  harvested_ = false;

  std::size_t nbuckets = buckets_.size();
  while (nbuckets < kMaxBuckets && live_ > nbuckets * 2) {
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
  if (stale_ < kMinStaleForPurge || stale_ <= live_ / 2) return;
  // Stale keys dominate: sweep them out in one pass, so cancel-heavy
  // workloads keep the calendar at O(live) instead of O(scheduled).
  //
  // Precondition (what makes resetting stale_ below exact even when this
  // runs from a callback mid-way through a harvested day): every cancelled
  // event has exactly one physical key, and it sits in a bucket, in the
  // *unserved* ready_ tail or in the staging run. Cancel only stales live
  // events (so the key exists and has not been served), and Step counts
  // off any stale key it passes over, so none can hide in the served husk
  // region [0, ready_head_). Checked below.
  std::size_t dropped = 0;
  // Keeps the live keys of [first, last) at `out`.
  const auto sweep = [this, &dropped](auto first, auto last, auto out) {
    for (; first != last; ++first) {
      if (Live(*first)) {
        *out++ = *first;
      } else {
        ++dropped;
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
  staged_.erase(sweep(staged_.begin(), staged_.end(), staged_.begin()),
                staged_.end());
  PHOENIX_CHECK_MSG(dropped == stale_,
                    "purge dropped a different number of keys than there "
                    "are cancelled events: a cancelled event was served, "
                    "double-counted, or physically lost");
  stale_ = 0;
  ++compactions_;
  PHOENIX_CHECK(pending_entries() == live_);
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
  std::sort(ready_.begin(), ready_.end(), Earlier);
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
    if (!staged_.empty()) FoldStaged();
    while (ready_head_ < ready_.size()) {
      const Key key = ready_[ready_head_];
      if (!Live(key)) {
        ++ready_head_;  // cancelled: its callback is already gone
        --stale_;
        continue;
      }
      if (key.time > until) return false;
      ++ready_head_;
      --live_;
      PHOENIX_CHECK_MSG(key.time >= now_, "event time went backwards");
      now_ = key.time;
      ++events_fired_;
      // Take the callback out of the pool before running it: it may
      // schedule events, which can reallocate the pool under it.
      Callback cb = std::move(callbacks_[key.slot]);
      Retire(key.slot);
      cb();
      return true;
    }
    ready_.clear();
    ready_head_ = 0;
    harvested_ = false;
    if (live_ == 0) {
      // Nothing live: drop any straggler stale keys so the calendar is
      // physically empty too.
      if (bucket_entries_ > 0) {
        for (auto& bucket : buckets_) bucket.clear();
        bucket_entries_ = 0;
        stale_ = 0;
      }
      current_day_ = DayOf(now_);
      return false;
    }
    AdvanceToNextDay();
  }
}

}  // namespace phoenix::sim
