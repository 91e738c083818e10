// Control-plane network fabric.
//
// Every scheduler<->worker control message in the simulation — proxy probes,
// centralized task bindings, late-binding fetch round trips, steal and
// migration transfers, CRV/E[W] heartbeat reports — is delivered through a
// NetworkFabric instead of a bare engine.ScheduleAfter. The fabric owns the
// link model:
//
//   * per-message latency sampling (constant, uniform jitter, lognormal,
//     empirical-from-histogram multipliers over the nominal transit time),
//   * chaos injection: drop, duplicate, and reorder probabilities, plus
//     machine-set partitions for an interval,
//   * message-lifecycle observability (kMsgSend / kMsgDeliver / kMsgDrop /
//     kMsgExpire events carrying the message id) feeding the auditor's
//     conservation rule "every sent message is delivered, dropped, or
//     expired".
//
// Determinism: each message draws from its own RNG stream derived by hashing
// (run seed, fabric seed, message id), so delivery outcomes depend only on
// the experiment seed — never on thread scheduling — and the parallel
// experiment runner stays byte-identical at any --threads value.
//
// Byte-identity guarantee: with the default config (constant latency, zero
// loss/duplication/reorder, no active partition) Send() degenerates to a
// single engine.ScheduleAfter with no RNG draws and no extra events, so a
// zero-chaos fabric reproduces the pre-fabric simulation outputs exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/machine.h"
#include "obs/event.h"
#include "sim/engine.h"
#include "sim/simtime.h"
#include "util/inline_function.h"
#include "util/rng.h"

namespace phoenix::net {

/// Monotonic per-fabric message identifier (1-based; 0 is "no message").
using MessageId = std::uint64_t;

/// Fabric endpoint of the scheduler's control node (probe dispatcher, task
/// binder, CRV monitor). It sits outside every machine partition set.
inline constexpr cluster::MachineId kControllerNode = cluster::kInvalidMachine;

/// What a message carries; recorded in the `task` field of message events.
enum class MessageKind : std::uint8_t {
  kProbe,         // scheduler -> worker proxy probe
  kTaskBind,      // scheduler -> worker early-bound task (centralized plane)
  kFetchRequest,  // worker -> scheduler late-binding task fetch
  kFetchReply,    // scheduler -> worker fetched task body
  kHeartbeatReport,  // worker -> CRV monitor E[W] report
  kGossipDigest,     // shard endpoint -> peer endpoint federation digest
};

enum class LatencyModel : std::uint8_t {
  kConstant,   // exactly the nominal transit time
  kUniform,    // nominal * U[1 - jitter, 1 + jitter]
  kLognormal,  // nominal * LogNormal(-sigma^2/2, sigma)  (mean-preserving)
  kEmpirical,  // nominal * multiplier drawn from a histogram table
};

struct FabricConfig {
  /// Nominal one-way control-plane transit time (paper §V-A: 0.5 ms).
  /// Single source of truth — schedulers must not hardcode their own.
  double one_way = 0.5 * sim::kMillisecond;

  LatencyModel model = LatencyModel::kConstant;
  /// kUniform: half-width of the relative jitter band, in [0, 1).
  double jitter = 0.25;
  /// kLognormal: shape of the mean-preserving multiplier distribution.
  double sigma = 0.5;
  /// kEmpirical: multiplier histogram sampled uniformly per message. Empty
  /// selects a built-in long-tailed table (most mass near 1x, rare 10x).
  std::vector<double> empirical;

  /// Chaos probabilities, each in [0, 1); drawn independently per message.
  double drop_rate = 0;
  double duplicate_rate = 0;
  /// Probability a message is held back long enough for later traffic to
  /// overtake it (adds U[1, 3] x nominal extra transit).
  double reorder_rate = 0;

  /// Pacing delay (seconds) before a delivery that bounced off a failed
  /// machine is re-sent, so a fully-failed pool cannot spin the event loop.
  static constexpr double bounce_backoff = 1.0;

  /// Fabric stream seed; mixed with the run seed so per-seed experiment
  /// repeats decorrelate while staying reproducible.
  static constexpr std::uint64_t seed = 0x6e657466ULL;  // "netf"

  /// True when the configuration cannot perturb delivery: constant latency
  /// and zero chaos. (Active partitions are runtime state, checked
  /// separately by NetworkFabric::FastPath.)
  bool ideal() const {
    return model == LatencyModel::kConstant && drop_rate == 0 &&
           duplicate_rate == 0 && reorder_rate == 0;
  }
};

struct FabricStats {
  std::uint64_t sent = 0;        // messages accepted (duplicates counted)
  std::uint64_t delivered = 0;   // arrivals consumed by the receiver
  std::uint64_t dropped = 0;     // lost to the drop_rate coin
  std::uint64_t partition_drops = 0;  // lost to an active partition
  std::uint64_t duplicated = 0;  // extra copies injected
  std::uint64_t reordered = 0;   // messages given overtaking-scale delay
  std::uint64_t expired = 0;     // arrivals the receiver deemed stale
  std::uint64_t partitions = 0;  // Partition() intervals started
};

class NetworkFabric {
 public:
  /// Receiver callback: returns true if the arrival was consumed, false if
  /// it was stale (duplicate of an already-resolved call, or the call was
  /// cancelled) — the distinction drives kMsgDeliver vs kMsgExpire.
  /// Small-buffer type: typical captures ([this, id] and friends) ride the
  /// fabric with zero heap traffic.
  using DeliveryFn = util::InlineFunction<bool()>;

  NetworkFabric(sim::Engine& engine, const FabricConfig& config,
                std::uint64_t run_seed);

  NetworkFabric(const NetworkFabric&) = delete;
  NetworkFabric& operator=(const NetworkFabric&) = delete;

  /// Sends one message from `src` to `dst` with nominal transit `nominal`
  /// seconds. On the fast path this is exactly one engine event; otherwise
  /// the message's RNG stream decides drop/delay/duplication. Returns the
  /// message id (0 when the fast path skipped per-message bookkeeping).
  MessageId Send(cluster::MachineId src, cluster::MachineId dst,
                 MessageKind kind, double nominal, DeliveryFn on_arrival);

  /// Fast-path-only send: the caller has already checked FastPath(), so
  /// delivery is certain and the arrival callback needs no consumed/stale
  /// result — the message is exactly one engine event, with the callback
  /// moved straight into it (no bool-returning wrapper, no allocation).
  void SendCertain(cluster::MachineId src, cluster::MachineId dst,
                   MessageKind kind, double nominal,
                   sim::Engine::Callback on_arrival);

  /// True while Send() degenerates to a plain ScheduleAfter: the config is
  /// ideal and no partition is active. Callers (the Rpc layer) use this to
  /// skip timeout bookkeeping when delivery is certain.
  bool FastPath() const { return ideal_config_ && !PartitionActive(); }

  /// Chaos: cut `machines` off from the rest of the fleet and the
  /// controller node for `duration` seconds. Messages sent across the cut
  /// while it is active are dropped (in-flight messages still land).
  /// Partitions do not stack: starting a new one replaces the current set.
  void Partition(const std::vector<cluster::MachineId>& machines,
                 double duration);

  bool PartitionActive() const {
    return engine_.Now() < partition_until_;
  }

  /// True if an active partition severs the (src, dst) pair.
  bool Severed(cluster::MachineId src, cluster::MachineId dst) const;

  double one_way() const { return config_.one_way; }
  double bounce_backoff() const { return config_.bounce_backoff; }
  const FabricConfig& config() const { return config_; }
  const FabricStats& stats() const { return stats_; }

  /// Observability tap. The fabric emits message-lifecycle events through
  /// this hook; the owning scheduler forwards them to its sinks. Never
  /// called on the fast path.
  void set_emitter(std::function<void(const obs::Event&)> emitter) {
    emitter_ = std::move(emitter);
  }

  /// Emits an arbitrary event through the fabric's tap (used by the Rpc
  /// layer for retry/failure events so both share one wiring point).
  void EmitEvent(obs::EventType type, std::uint32_t machine,
                 std::uint32_t task, double value);

 private:
  /// Independent per-message stream: hash of (mixed seed, message id).
  util::Rng MessageRng(MessageId id) const;

  double SampleDelay(double nominal, util::Rng& rng) const;

  void EmitMessage(obs::EventType type, MessageKind kind,
                   cluster::MachineId dst, MessageId id);

  /// Chaos-path send of one already-identified copy of the message whose
  /// callback sits in delivery slot `slot`.
  void SendCopy(MessageId id, cluster::MachineId src, cluster::MachineId dst,
                MessageKind kind, double nominal, std::uint32_t slot,
                bool allow_duplicate);

  /// Runs slot `slot`'s callback for one arrived copy, and frees the slot
  /// once no copy is left in flight. Returns the callback's result.
  bool Deliver(std::uint32_t slot);

  sim::Engine& engine_;
  FabricConfig config_;
  const bool ideal_config_;
  std::uint64_t seed_mix_;
  MessageId last_id_ = 0;
  FabricStats stats_;
  std::function<void(const obs::Event&)> emitter_;

  // Delivery pool: one slot per chaos-path message, shared by its copies (a
  // duplicate re-runs the same callback), with the free slots on a list. A
  // slot is freed when its last scheduled copy arrives, or at once when
  // every copy was lost.
  struct DeliverySlot {
    DeliveryFn fn;
    std::uint32_t in_flight = 0;  // scheduled copies not yet arrived
  };
  std::vector<DeliverySlot> deliveries_;
  std::vector<std::uint32_t> free_deliveries_;

  // Active partition: bitmap of machines on the cut-off side.
  std::vector<char> partitioned_;
  double partition_until_ = 0;
};

}  // namespace phoenix::net
