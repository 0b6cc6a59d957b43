#include "fleet/fleet.h"

#include <utility>

#include "util/check.h"
#include "util/logging.h"

namespace menos::fleet {

Fleet::Fleet(const FleetConfig& config, const nn::TransformerConfig& model)
    : config_(config) {
  MENOS_CHECK_MSG(config_.shards >= 1, "fleet needs at least one shard");
  MENOS_CHECK_MSG(core::shares_base_model(config_.server.mode),
                  "fleet shards require a shared serving mode");
  executor_ = std::make_unique<util::TaskPool>(
      core::resolve_executor_width(config_.executor_threads));
  poller_ = std::make_unique<net::Poller>();
  for (int i = 0; i < config_.shards; ++i) {
    // Each shard gets a private DeviceManager: its scheduler partition must
    // budget only its own GPUs, not the fleet total.
    devices_.push_back(std::make_unique<gpusim::DeviceManager>(
        config_.gpus_per_shard, config_.gpu_bytes_per_shard));
    core::ServerConfig sc = config_.server;
    sc.shared_executor = executor_.get();
    sc.shared_poller = poller_.get();
    sc.trace = config_.trace;
    // Same base_seed everywhere (bit-identical stores enable migration),
    // so the token streams must be decorrelated explicitly.
    sc.token_seed =
        config_.server.base_seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
    servers_.push_back(
        std::make_unique<core::Server>(sc, *devices_.back(), model));
    pressure_pending_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  policy_ = make_policy(config_.policy);
  std::vector<core::Server*> shards;
  shards.reserve(servers_.size());
  for (auto& s : servers_) shards.push_back(s.get());
  router_ = std::make_unique<Router>(std::move(shards), *policy_, *executor_,
                                     *poller_, config_.trace);
  for (int i = 0; i < config_.shards; ++i) {
    servers_[static_cast<std::size_t>(i)]->set_session_closed_hook(
        [this, i](std::uint64_t token) {
          router_->on_session_closed(i, token);
        });
  }
}

Fleet::~Fleet() { stop(); }

void Fleet::start(net::Acceptor& acceptor) {
  MENOS_CHECK_MSG(!started_.exchange(true), "fleet already started");
  poller_->start();
  for (auto& server : servers_) server->start();
  router_->start(acceptor);
  if (config_.auto_rebalance) {
    MENOS_CHECK_MSG(config_.server.lease_seconds > 0.0,
                    "auto_rebalance requires leases (exported sessions park)");
    for (int i = 0; i < config_.shards; ++i) {
      servers_[static_cast<std::size_t>(i)]
          ->scheduler()
          .set_pressure_callback([this, i](const sched::PressureEvent&) {
            // Called after the scheduler mutex drops, possibly from a
            // session strand: only flag and enqueue here. Coalesce so a
            // burst of reclaim passes wakes the migrator once.
            if (!pressure_pending_[static_cast<std::size_t>(i)]->exchange(
                    true)) {
              pressured_.push(i);
            }
          });
    }
    migrator_ = std::thread([this] { migrator_loop(); });  // NOLINT(raw-thread)
  }
}

void Fleet::stop() {
  if (stopping_.exchange(true)) return;
  if (!started_.load()) return;
  router_->stop();
  pressured_.close();
  if (migrator_.joinable()) migrator_.join();
  // Unhook pressure before shard teardown: session cleanup runs reclaim
  // passes that would otherwise push into the closed queue harmlessly but
  // noisily.
  for (auto& server : servers_) {
    server->scheduler().set_pressure_callback(nullptr);
  }
  for (auto& server : servers_) server->stop();
  poller_->stop();
  executor_->stop_and_join();
}

bool Fleet::migrate_session(std::uint64_t token, int dst) {
  MENOS_CHECK_MSG(dst >= 0 && dst < shard_count(),
                  "migration target " << dst << " out of range");
  const int src = router_->begin_migration(token);
  if (src < 0) return false;  // unknown or already migrating
  if (src == dst) {
    router_->finish_migration(token, src);
    return false;
  }
  auto ticket = servers_[static_cast<std::size_t>(src)]->migrate_out(token);
  if (!ticket.has_value()) {
    // Busy, expired, or already gone — nothing moved, mapping unchanged.
    router_->finish_migration(token, src);
    return false;
  }
  if (servers_[static_cast<std::size_t>(dst)]->migrate_in(*ticket)) {
    router_->finish_migration(token, dst);
    if (config_.trace != nullptr) {
      // src/dst shard pair rides in dedicated events (one int slot each);
      // the headline event carries the payload size.
      config_.trace->record(util::TraceCategory::Session, "session.migrated",
                            dst, ticket->persistent_bytes);
      config_.trace->record(util::TraceCategory::Session, "migrate.src", src,
                            token);
      config_.trace->record(util::TraceCategory::Session, "migrate.dst", dst,
                            token);
    }
    return true;
  }
  // Target refused (out of memory, stopping): put the session back where it
  // came from — the ticket is still intact.
  if (servers_[static_cast<std::size_t>(src)]->migrate_in(*ticket)) {
    router_->finish_migration(token, src);
    return false;
  }
  MENOS_LOG(Error) << "session token " << token
                   << " lost in migration: both import attempts failed";
  router_->drop_session(token);
  return false;
}

bool Fleet::rebalance_once() {
  // Most persistent bytes = most pressure on the shared partition.
  int busiest = 0;
  std::size_t busiest_bytes = 0;
  for (int i = 0; i < shard_count(); ++i) {
    const std::size_t bytes =
        servers_[static_cast<std::size_t>(i)]->persistent_gpu_bytes();
    if (i == 0 || bytes > busiest_bytes) {
      busiest = i;
      busiest_bytes = bytes;
    }
  }
  const int target = roomiest_shard_except(busiest);
  if (target < 0 || target == busiest) return false;
  for (std::uint64_t token : router_->tokens_on(busiest)) {
    if (migrate_session(token, target)) return true;
  }
  return false;
}

void Fleet::migrator_loop() {
  while (true) {
    std::optional<int> shard = pressured_.pop();
    if (!shard.has_value()) return;  // queue closed: fleet stopping
    pressure_pending_[static_cast<std::size_t>(*shard)]->store(false);
    if (stopping_.load()) continue;  // drain without acting
    relieve_shard(*shard);
  }
}

void Fleet::relieve_shard(int shard) {
  const int target = roomiest_shard_except(shard);
  if (target < 0) return;
  // migrate_out declines sessions that are mid-iteration, so walk the
  // shard's tokens until one idle session moves (or none can).
  for (std::uint64_t token : router_->tokens_on(shard)) {
    if (migrate_session(token, target)) return;
  }
}

int Fleet::roomiest_shard_except(int except) const {
  int best = -1;
  std::size_t best_free = 0;
  for (int i = 0; i < shard_count(); ++i) {
    if (i == except) continue;
    const std::size_t free =
        servers_[static_cast<std::size_t>(i)]->scheduler().total_available();
    if (best < 0 || free > best_free) {
      best = i;
      best_free = free;
    }
  }
  return best;
}

}  // namespace menos::fleet
