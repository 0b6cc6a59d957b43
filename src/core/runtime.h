// Shared runtime definitions: serving modes, server configuration, and
// tensor<->wire conversion helpers.
#pragma once

#include <cstdint>

#include "gpusim/device.h"
#include "net/message.h"
#include "sched/scheduler.h"
#include "tensor/tensor.h"
#include "util/trace.h"

namespace menos::net {
class Poller;
}  // namespace menos::net

namespace menos::util {
class TaskPool;
}  // namespace menos::util

namespace menos::core {

/// How a serving session manages GPU memory across the four-step loop of
/// §2.2. The first four are the optimization ladder of Fig 3; the last is
/// the task-level-sharing vanilla baseline of §5.1.
enum class ServingMode : std::uint8_t {
  /// Fig 3(d) — the Menos default: no-grad first forward, release, then
  /// re-forward with gradients when g_c arrives.
  MenosOnDemand,
  /// Fig 3(c): full (gradient-tracking) first forward, but intermediates
  /// are released while waiting for g_c, requiring a re-forward.
  MenosReleaseEarly,
  /// Fig 3(b): intermediates held from forward to backward, released only
  /// after the backward pass completes.
  MenosReleaseAfterBackward,
  /// Fig 3(a): memory preserved across the whole fine-tuning lifetime.
  MenosPreserveAll,
  /// §5.1 baseline: per-client copy of the base model (no sharing); the
  /// whole task swaps between GPU and host memory when capacity is
  /// exceeded.
  VanillaTaskSwap,
};

const char* serving_mode_name(ServingMode mode) noexcept;

/// The per-session heterogeneity profile rides the Hello frame, so its
/// canonical definition lives with the protocol; core is its main consumer.
using ClientProfile = net::ClientProfile;
using ActivationCodec = net::ActivationCodec;

/// True for modes that keep the shared base model (everything but vanilla).
bool shares_base_model(ServingMode mode) noexcept;

/// True for modes whose scheduler allocation spans forward -> backward.
bool holds_across_iteration(ServingMode mode) noexcept;

struct ServerConfig {
  ServingMode mode = ServingMode::MenosOnDemand;
  sched::Policy sched_policy = sched::Policy::FcfsBackfill;
  /// Seed standing in for the base-model checkpoint contents.
  std::uint64_t base_seed = 42;
  /// Safety margin subtracted from the schedulable partition capacity, as
  /// headroom for serialization scratch.
  std::size_t reserve_bytes = 0;

  /// Session lease (docs/FAULTS.md): a session silent for longer than this
  /// — no traffic and no Heartbeat — is expired by the reaper, releasing
  /// its GPU memory and cancelling its scheduler reservations so a crashed
  /// client cannot strand capacity. With leases enabled a dropped
  /// connection parks the session for ResumeSession reattach instead of
  /// destroying it. 0 disables leases (the pre-fault-tolerance behavior:
  /// sessions die with their connection).
  double lease_seconds = 0.0;
  /// Reaper wake-up period; <= 0 derives lease_seconds / 4.
  double reaper_interval_s = 0.0;

  /// Width of the shared serving executor (the worker pool every session's
  /// state machine runs on). <= 0 resolves through the MENOS_EXECUTOR_THREADS
  /// environment variable, then min(8, hardware_concurrency).
  int executor_threads = 0;

  /// Optional event trace (not owned; must outlive the server). Sessions
  /// record lifecycle, scheduling-wait, compute, and swap events into it.
  util::EventTrace* trace = nullptr;

  /// Fleet mode: run this server on an externally owned serving core
  /// instead of creating its own executor/poller. Both must outlive the
  /// server, and the owner starts the poller before Server::start() and
  /// stops it after Server::stop() (the server then only schedules/cancels
  /// its own reaper timer on it). Null (the default) = the server owns a
  /// private core, as before.
  util::TaskPool* shared_executor = nullptr;
  net::Poller* shared_poller = nullptr;

  /// Seed for minting session tokens; 0 derives one from base_seed. Fleet
  /// shards share base_seed (their ParameterStores must be bit-identical)
  /// and so MUST set distinct token seeds, or every shard would mint the
  /// same token sequence and resume routing could not tell them apart.
  std::uint64_t token_seed = 0;

  /// Upper bound on how many compatible clients one CoalescedBatch group
  /// grant may cover (docs/ARCHITECTURE.md "Cross-client batched trunk
  /// compute"). Only consulted when sched_policy == Policy::CoalescedBatch.
  std::size_t batch_max_group = 32;
};

/// Width of a serving executor: `configured` if > 0, else the
/// MENOS_EXECUTOR_THREADS environment variable if > 0 (so CI can force
/// heavy interleaving on few workers), else min(8, hardware_concurrency).
/// Clamped to util::kMaxThreads; a malformed variable fails a MENOS_CHECK.
int resolve_executor_width(int configured);

/// Copy a device tensor into a wire carrier.
net::WireTensor to_wire(const tensor::Tensor& t);

/// Materialize a wire tensor on `device`.
tensor::Tensor from_wire(const net::WireTensor& w, gpusim::Device& device,
                         bool requires_grad = false);

}  // namespace menos::core
