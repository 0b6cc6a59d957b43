// fleet::Fleet — live multi-GPU sharded serving.
//
// A Fleet owns N server shards, each with its own simulated GPU (a private
// gpusim::DeviceManager) and its own bit-identical copy of the base model
// (all shards share base_seed), all multiplexed onto ONE serving core: a
// shared util::TaskPool executor and a shared net::Poller. Growing the
// fleet therefore adds GPU capacity, not threads — the paper's premise that
// serving is memory-bound, not compute-bound, at the fleet level.
//
// Clients connect to a single front door (fleet::Router): the first Hello is
// placed on a shard by a pluggable PlacementPolicy; ResumeSession frames are
// routed to wherever the session currently lives, which may have changed —
// a shard under memory pressure (sched::PressureEvent) hands idle sessions
// to the fleet's migrator thread, which moves their adapter + optimizer
// state to the least-loaded shard. Because every shard derives the same base
// model and the adapter/optimizer floats travel bit-exactly, a migrated
// session's loss curve is bit-identical to one that never moved.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/server.h"
#include "fleet/policy.h"
#include "fleet/router.h"
#include "gpusim/device.h"
#include "net/poller.h"
#include "util/queue.h"

namespace menos::fleet {

struct FleetConfig {
  /// Per-shard server template. base_seed is shared across shards (the
  /// stores must be bit-identical for migration); token_seed, shared core
  /// pointers, and executor_threads are overwritten per shard. Migration
  /// requires lease_seconds > 0 (exported sessions sit Parked under their
  /// lease until the client resumes at the new shard).
  core::ServerConfig server;
  /// Number of shards; each gets `gpus_per_shard` simulated GPUs of
  /// `gpu_bytes_per_shard` each.
  int shards = 1;
  int gpus_per_shard = 1;
  std::size_t gpu_bytes_per_shard = 64ULL << 20;
  /// Placement policy name (see make_policy): "round-robin",
  /// "least-loaded", "power-of-two", "adapter-affinity".
  std::string policy = "round-robin";
  /// Subscribe to each shard's scheduler pressure events and migrate idle
  /// sessions away from pressured shards automatically.
  bool auto_rebalance = false;
  /// Serving-core width shared by ALL shards (<=0: ServerConfig default).
  int executor_threads = 0;
  /// Optional event trace shared by the shards and the router (not owned).
  util::EventTrace* trace = nullptr;
};

class Fleet {
 public:
  Fleet(const FleetConfig& config, const nn::TransformerConfig& model);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Start the serving core, every shard, and the router's front door on
  /// `acceptor` (borrowed; must stay alive until stop()).
  void start(net::Acceptor& acceptor);

  /// Stop in dependency order: router first (no new arrivals), then the
  /// migrator, then every shard, then the shared core. Idempotent.
  void stop();

  /// Move session `token` to shard `dst`. Blocks until the move resolves;
  /// safe to call only from outside the serving executor (the export waits
  /// on the session's strand). Returns false if the session is unknown,
  /// busy (not idle — migration only moves AwaitRequest/Parked sessions),
  /// already migrating, already on `dst`, or the target refuses the import
  /// (the session is then restored on its source shard; only a double
  /// failure loses it).
  bool migrate_session(std::uint64_t token, int dst);

  /// One manual rebalance pass: migrate an idle session from the most
  /// memory-loaded shard to the least, if they differ. Returns true if a
  /// session moved.
  bool rebalance_once();

  int shard_count() const noexcept { return static_cast<int>(servers_.size()); }
  core::Server& shard(int i) { return *servers_[static_cast<std::size_t>(i)]; }
  /// Shard `i`'s simulated GPUs (leak/teardown assertions in tests).
  gpusim::DeviceManager& devices(int i) {
    return *devices_[static_cast<std::size_t>(i)];
  }
  Router& router() noexcept { return *router_; }
  util::TaskPool& executor() noexcept { return *executor_; }

 private:
  void migrator_loop();
  /// Pressure reaction: try to move one idle session off `shard`.
  void relieve_shard(int shard);
  /// Shard with the most schedulable bytes free, excluding `except`.
  int roomiest_shard_except(int except) const;

  FleetConfig config_;
  std::unique_ptr<util::TaskPool> executor_;
  std::unique_ptr<net::Poller> poller_;
  std::vector<std::unique_ptr<gpusim::DeviceManager>> devices_;
  std::vector<std::unique_ptr<core::Server>> servers_;
  std::unique_ptr<PlacementPolicy> policy_;
  std::unique_ptr<Router> router_;

  /// Pressured shard indices, fed by scheduler pressure callbacks and
  /// drained by the migrator thread. Migration cannot run on the serving
  /// executor (export_for_migration blocks on the session's strand), hence
  /// the dedicated thread.
  util::BlockingQueue<int> pressured_;
  /// One pending wakeup per shard at a time — pressure events can arrive
  /// far faster than migrations resolve.
  std::vector<std::unique_ptr<std::atomic<bool>>> pressure_pending_;
  std::thread migrator_;  // NOLINT(raw-thread) one per fleet
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace menos::fleet
