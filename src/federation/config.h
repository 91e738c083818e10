// Sharded control-plane configuration.
//
// With `shards` > 1 the scheduler's control plane is partitioned into N
// shards, each owning a contiguous range of the machine universe: that
// shard's heartbeats, CRV demand/supply accounting, and mean-E[W] signal.
// Shards exchange aggregate digests (per-dimension CRV load, mean wait,
// free-slot counts) as gossiped messages over the control-plane fabric, so
// every shard schedules against an eventually-consistent view of the rest
// of the fleet. `shards` = 1 (the default) disables the subsystem entirely
// and is byte-identical to the unsharded scheduler.
#pragma once

#include <cstddef>

namespace phoenix::federation {

struct FederationConfig {
  /// Scheduler shards the fleet is partitioned across. 1 = disabled.
  std::size_t shards = 1;

  /// Seconds between a shard's digest publications to its peers. Gossip is
  /// full-mesh push: every period each shard sends its current digest to
  /// every peer, staggered so publications do not synchronize.
  double gossip_period = 3.0;

  /// A peer view older than this (origin-stamp age at read time) is treated
  /// as unknown: cross-shard placement falls back to home-territory-only
  /// rather than acting on an arbitrarily stale digest. Staleness degrades
  /// placement quality, never correctness.
  double staleness_bound = 30.0;

  /// A peer is worth offloading to only if its gossiped mean E[W] is below
  /// this fraction of the home shard's own. Hysteresis against ping-ponging
  /// work between two equally loaded shards on slightly stale views.
  static constexpr double offload_factor = 0.8;

  bool enabled() const { return shards > 1; }
};

}  // namespace phoenix::federation
