#include "net/fabric.h"

#include <algorithm>
#include <iterator>

#include "queueing/distributions.h"
#include "util/check.h"

namespace phoenix::net {

namespace {

// Built-in empirical multiplier table: a stand-in for a measured datacenter
// RPC latency histogram — most messages near nominal, a heavy tail out to
// 10x (switch queueing, kernel scheduling hiccups).
const double kDefaultEmpirical[] = {0.8, 0.85, 0.9,  0.95, 1.0, 1.0,
                                    1.0, 1.05, 1.1,  1.2,  1.3, 1.5,
                                    2.0, 3.0,  5.0,  10.0};

}  // namespace

NetworkFabric::NetworkFabric(sim::Engine& engine, const FabricConfig& config,
                             std::uint64_t run_seed)
    : engine_(engine), config_(config), ideal_config_(config.ideal()) {
  PHOENIX_CHECK_MSG(config_.one_way >= 0, "negative one-way latency");
  PHOENIX_CHECK_MSG(config_.drop_rate >= 0 && config_.drop_rate < 1,
                    "drop rate must be in [0, 1)");
  PHOENIX_CHECK_MSG(
      config_.duplicate_rate >= 0 && config_.duplicate_rate < 1,
      "duplicate rate must be in [0, 1)");
  PHOENIX_CHECK_MSG(config_.reorder_rate >= 0 && config_.reorder_rate < 1,
                    "reorder rate must be in [0, 1)");
  PHOENIX_CHECK_MSG(config_.jitter >= 0 && config_.jitter < 1,
                    "jitter must be in [0, 1)");
  // Mix the run seed with the fabric's own stream id so per-seed repeats
  // decorrelate while two fabrics with the same (run, fabric) seeds agree.
  std::uint64_t s = run_seed;
  seed_mix_ = util::SplitMix64(s) ^ config_.seed;
}

util::Rng NetworkFabric::MessageRng(MessageId id) const {
  std::uint64_t s = seed_mix_ + id * 0x9e3779b97f4a7c15ULL;
  return util::Rng(util::SplitMix64(s));
}

double NetworkFabric::SampleDelay(double nominal, util::Rng& rng) const {
  switch (config_.model) {
    case LatencyModel::kConstant:
      return nominal;
    case LatencyModel::kUniform:
      return nominal * rng.Uniform(1.0 - config_.jitter, 1.0 + config_.jitter);
    case LatencyModel::kLognormal:
      // mu = -sigma^2/2 keeps the multiplier's mean at exactly 1, so the
      // latency model changes the shape of the transit distribution without
      // shifting its average away from the nominal constant.
      return nominal *
             queueing::SampleLogNormal(rng,
                                       -0.5 * config_.sigma * config_.sigma,
                                       config_.sigma);
    case LatencyModel::kEmpirical: {
      if (config_.empirical.empty()) {
        const std::size_t n = std::size(kDefaultEmpirical);
        return nominal * kDefaultEmpirical[rng.NextBounded(n)];
      }
      return nominal *
             config_.empirical[rng.NextBounded(config_.empirical.size())];
    }
  }
  return nominal;
}

void NetworkFabric::EmitMessage(obs::EventType type, MessageKind kind,
                                cluster::MachineId dst, MessageId id) {
  if (!emitter_) return;
  obs::Event event;
  event.time = engine_.Now();
  event.type = type;
  event.job = obs::kNoId;
  event.machine = dst;
  event.task = static_cast<std::uint32_t>(kind);
  // Message ids stay exact in a double up to 2^53 — far beyond any run.
  event.value = static_cast<double>(id);
  emitter_(event);
}

void NetworkFabric::EmitEvent(obs::EventType type, std::uint32_t machine,
                              std::uint32_t task, double value) {
  if (!emitter_) return;
  obs::Event event;
  event.time = engine_.Now();
  event.type = type;
  event.job = obs::kNoId;
  event.machine = machine;
  event.task = task;
  event.value = value;
  emitter_(event);
}

bool NetworkFabric::Severed(cluster::MachineId src,
                            cluster::MachineId dst) const {
  if (!PartitionActive()) return false;
  const auto side = [this](cluster::MachineId m) {
    return m != kControllerNode && m < partitioned_.size() &&
           partitioned_[m] != 0;
  };
  return side(src) != side(dst);
}

void NetworkFabric::Partition(const std::vector<cluster::MachineId>& machines,
                              double duration) {
  PHOENIX_CHECK_MSG(duration > 0, "partition duration must be positive");
  std::fill(partitioned_.begin(), partitioned_.end(), 0);
  for (const cluster::MachineId m : machines) {
    if (m >= partitioned_.size()) partitioned_.resize(m + 1, 0);
    partitioned_[m] = 1;
  }
  partition_until_ = engine_.Now() + duration;
  ++stats_.partitions;
  EmitEvent(obs::EventType::kPartitionStart, obs::kNoId, obs::kNoId,
            static_cast<double>(machines.size()));
  // The heal event marks the interval's end for traces; Severed() itself
  // only compares against partition_until_, so an overlapping later
  // Partition() call safely supersedes this one.
  engine_.ScheduleAfter(duration, [this, until = partition_until_] {
    if (partition_until_ == until) {
      EmitEvent(obs::EventType::kPartitionEnd, obs::kNoId, obs::kNoId, 0);
    }
  });
}

void NetworkFabric::SendCertain(cluster::MachineId /*src*/,
                                cluster::MachineId /*dst*/,
                                MessageKind /*kind*/, double nominal,
                                sim::Engine::Callback on_arrival) {
  PHOENIX_CHECK_MSG(FastPath(), "SendCertain requires the fast path");
  ++stats_.sent;
  ++stats_.delivered;
  engine_.ScheduleAfter(nominal, std::move(on_arrival));
}

MessageId NetworkFabric::Send(cluster::MachineId src, cluster::MachineId dst,
                              MessageKind kind, double nominal,
                              DeliveryFn on_arrival) {
  ++stats_.sent;
  if (FastPath()) {
    // Byte-identity path: one event, no RNG draws, no message events —
    // exactly what the scheduler did before the fabric existed.
    ++stats_.delivered;
    engine_.ScheduleAfter(nominal,
                          [fn = std::move(on_arrival)]() mutable { fn(); });
    return 0;
  }
  const MessageId id = ++last_id_;
  std::uint32_t slot;
  if (free_deliveries_.empty()) {
    slot = static_cast<std::uint32_t>(deliveries_.size());
    deliveries_.push_back({std::move(on_arrival), 0});
  } else {
    slot = free_deliveries_.back();
    free_deliveries_.pop_back();
    deliveries_[slot].fn = std::move(on_arrival);
  }
  SendCopy(id, src, dst, kind, nominal, slot, /*allow_duplicate=*/true);
  if (deliveries_[slot].in_flight == 0) {  // every copy was lost
    deliveries_[slot].fn = nullptr;
    free_deliveries_.push_back(slot);
  }
  return id;
}

bool NetworkFabric::Deliver(std::uint32_t slot) {
  // Take the callback out of the pool before running it: it may send, which
  // can reallocate the pool under it.
  DeliveryFn fn = std::move(deliveries_[slot].fn);
  const bool consumed = fn();
  DeliverySlot& entry = deliveries_[slot];
  if (--entry.in_flight > 0) {
    entry.fn = std::move(fn);  // a duplicate copy is still in flight
  } else {
    free_deliveries_.push_back(slot);
  }
  return consumed;
}

void NetworkFabric::SendCopy(MessageId id, cluster::MachineId src,
                             cluster::MachineId dst, MessageKind kind,
                             double nominal, std::uint32_t slot,
                             bool allow_duplicate) {
  EmitMessage(obs::EventType::kMsgSend, kind, dst, id);
  util::Rng rng = MessageRng(id);
  if (Severed(src, dst)) {
    ++stats_.partition_drops;
    EmitMessage(obs::EventType::kMsgDrop, kind, dst, id);
    return;
  }
  if (config_.drop_rate > 0 && rng.Bernoulli(config_.drop_rate)) {
    ++stats_.dropped;
    EmitMessage(obs::EventType::kMsgDrop, kind, dst, id);
    return;
  }
  double delay = SampleDelay(nominal, rng);
  if (config_.reorder_rate > 0 && rng.Bernoulli(config_.reorder_rate)) {
    ++stats_.reordered;
    delay += nominal * rng.Uniform(1.0, 3.0);
  }
  // A duplicate is a fresh copy with its own id and RNG stream (so the
  // conservation rule sees one send + one terminal per id), sharing the
  // receiver callback — the receiver's dedup decides which copy "wins".
  const bool duplicate = allow_duplicate && config_.duplicate_rate > 0 &&
                         rng.Bernoulli(config_.duplicate_rate);
  ++deliveries_[slot].in_flight;
  engine_.ScheduleAfter(delay, [this, id, kind, dst, slot] {
    if (Deliver(slot)) {
      ++stats_.delivered;
      EmitMessage(obs::EventType::kMsgDeliver, kind, dst, id);
    } else {
      ++stats_.expired;
      EmitMessage(obs::EventType::kMsgExpire, kind, dst, id);
    }
  });
  if (duplicate) {
    ++stats_.duplicated;
    ++stats_.sent;
    SendCopy(++last_id_, src, dst, kind, nominal, slot,
             /*allow_duplicate=*/false);
  }
}

}  // namespace phoenix::net
