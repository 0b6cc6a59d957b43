// The two steady workloads: four tenants admitted one after another, then
// training in a closed loop for the whole window.
//
//   trunk_compute: OPT-family dim 128 / 4 layers / ffn 512 / 4 heads, batch
//     4 x seq 32 each, on a 1 GiB GPU — server trunk compute and the
//     executor and intra-op pools sharing the cores; the scheduler never
//     waits.
//   gpu_pressure: stock tiny_opt, seq 32, batches 8, 2, 8, 2, on a GPU
//     sized from a quiet profile to hold the base model, every tenant's
//     A + O, and one batch-8 plus one batch-2 backward working set — the
//     paper's memory-sharing regime, where FCFS + backfill has work to do.
#include <barrier>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/server.h"
#include "trace.h"

namespace perfbench {

using namespace menos;

namespace {

constexpr int kTenants = 4;
/// Steps each tenant takes before the window opens; their losses are the
/// ones the solo replay must reproduce.
constexpr int kWarmupSteps = 3;

struct Shape {
  nn::TransformerConfig model;
  std::int64_t batch[kTenants] = {};  ///< in admission order
  std::int64_t seq = 32;
};

/// Set-up repetitions; the median is setup_s.
constexpr int kSetupReps = 21;
/// Seconds of lifecycles (construct, connect, disconnect) run against the
/// warm server after the window: the session_open_ms and sessions_per_s
/// samples of the steady workloads.
constexpr double kProbeSeconds = 6.0;

struct Tenant {
  core::ClientOptions options;
  std::vector<std::int32_t> tokens;
  std::uint64_t loader_seed = 0;
};

std::vector<Tenant> make_tenants(const Shape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Tenant> tenants(kTenants);
  for (int i = 0; i < kTenants; ++i) {
    Tenant& t = tenants[static_cast<std::size_t>(i)];
    t.options = client_options(shape.model, shape.batch[i], shape.seq,
                               rng.next_u64(), "tenant" + std::to_string(i));
    t.tokens = corpus_tokens(rng.next_u64());
    t.loader_seed = rng.next_u64();
  }
  return tenants;
}

/// One server with its tenants admitted.
struct Rig {
  std::unique_ptr<gpusim::DeviceManager> devices;
  std::unique_ptr<BenchAcceptor> acceptor;  // outlives the server
  std::unique_ptr<core::Server> server;
  std::vector<std::unique_ptr<gpusim::DeviceManager>> client_devices;
  std::vector<std::unique_ptr<core::Client>> clients;  ///< null = failed
};

/// Build a server and admit the tenants one after another. Returns the
/// set-up time. The serving set-up (`serving`) checks the tenants'
/// profiles for drift.
double build_rig(Rig& rig, const Shape& shape, std::size_t gpu_bytes,
                 const std::vector<Tenant>& tenants, const QuietProfile& quiet,
                 bool serving, const Args& args, RunResult& out) {
  Tracer& tracer = Tracer::instance();
  // Tear the previous repetition down first: its server still points at
  // its devices.
  rig.clients.clear();
  rig.server.reset();
  rig.acceptor.reset();
  rig.devices.reset();
  rig.client_devices.clear();
  for (int i = 0; i < kTenants; ++i) {
    rig.client_devices.push_back(
        std::make_unique<gpusim::DeviceManager>(1, 1ull << 30));
  }
  const double t0 = tracer.now();
  rig.devices = std::make_unique<gpusim::DeviceManager>(1, gpu_bytes);
  rig.acceptor = std::make_unique<BenchAcceptor>(args.trace);
  rig.server = std::make_unique<core::Server>(core::ServerConfig{},
                                              *rig.devices, shape.model);
  rig.server->start(*rig.acceptor);
  for (int i = 0; i < kTenants; ++i) {
    const Tenant& t = tenants[static_cast<std::size_t>(i)];
    const auto session = static_cast<std::uint32_t>(i);
    out.counters.attempted.fetch_add(1);
    try {
      auto client = std::make_unique<core::Client>(
          t.options, rig.acceptor->connect(session),
          rig.client_devices[static_cast<std::size_t>(i)]->gpu(0));
      {
        ScopedSpan span(SpanKind::Connect, session);
        client->connect();
      }
      if (serving) {
        ++out.drift_checked;
        if (drifted(*client, quiet.demands[static_cast<std::size_t>(i)])) {
          ++out.drift_sessions;
        }
      }
      rig.clients.push_back(std::move(client));
    } catch (const std::exception& e) {
      out.counters.failed.fetch_add(1);
      std::fprintf(stderr, "perfbench: tenant %d connect failed: %s\n", i,
                   e.what());
      rig.clients.push_back(nullptr);
    }
  }
  return tracer.now() - t0;
}

/// Bye from every tenant.
void release_tenants(Rig& rig, RunResult& out) {
  for (std::size_t i = 0; i < rig.clients.size(); ++i) {
    if (rig.clients[i] == nullptr) continue;
    out.counters.attempted.fetch_add(1);
    ScopedSpan span(SpanKind::Disconnect, static_cast<std::uint32_t>(i));
    rig.clients[i]->disconnect();
  }
  rig.clients.clear();
}

/// The session lifecycle on the warm server, every connect a profile-cache
/// hit: one probe driver per tenant config runs lifecycles for
/// kProbeSeconds, the way session_churn does but without steps.
void probe_lifecycles(Rig& rig, const std::vector<Tenant>& tenants,
                      RunResult& out) {
  Tracer& tracer = Tracer::instance();
  // Start from a server whose released tenants have been torn down.
  const double drained_by = tracer.now() + 10.0;
  while (rig.server->session_count() > 0 && tracer.now() < drained_by) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  std::vector<std::vector<Work>> lives(kTenants);
  std::vector<std::vector<double>> connect_s(kTenants);
  Interval window;
  std::barrier start(kTenants + 1);
  std::vector<std::thread> drivers;
  for (int i = 0; i < kTenants; ++i) {
    drivers.emplace_back([&, i] {
      const auto idx = static_cast<std::size_t>(i);
      const auto session = static_cast<std::uint32_t>(kTenants + i);
      start.arrive_and_wait();
      while (tracer.now() < window.end) {
        out.counters.attempted.fetch_add(2);  // connect + disconnect
        const double l0 = tracer.now();
        try {
          core::Client client(tenants[idx].options,
                              rig.acceptor->connect(session),
                              rig.client_devices[idx]->gpu(0));
          {
            ScopedSpan span(SpanKind::Connect, session);
            const double c0 = tracer.now();
            client.connect();
            connect_s[idx].push_back(tracer.now() - c0);
          }
          ScopedSpan span(SpanKind::Disconnect, session);
          client.disconnect();
        } catch (const std::exception& e) {
          out.counters.failed.fetch_add(1);
          std::fprintf(stderr, "perfbench: probe session failed: %s\n",
                       e.what());
          continue;
        }
        lives[idx].push_back({{l0, tracer.now()}, 1.0});
      }
    });
  }
  window = {tracer.now(), tracer.now() + kProbeSeconds};
  start.arrive_and_wait();
  for (auto& d : drivers) d.join();
  std::vector<Work> all;
  for (std::size_t i = 0; i < kTenants; ++i) {
    all.insert(all.end(), lives[i].begin(), lives[i].end());
    out.connect_s.insert(out.connect_s.end(), connect_s[i].begin(),
                         connect_s[i].end());
  }
  out.lifecycles = out.connect_s.size();
  out.sessions_per_s = window_rate(all, window);
}

void run_steady(const Args& args, const Shape& shape, bool size_gpu,
                RunResult& out) {
  Tracer& tracer = Tracer::instance();
  const std::vector<Tenant> tenants = make_tenants(shape, args.seed);
  std::vector<core::ClientOptions> configs;
  for (const Tenant& t : tenants) configs.push_back(t.options);
  const QuietProfile quiet = quiet_profile(shape.model, configs);
  std::size_t gpu_bytes = 1ull << 30;
  if (size_gpu) {
    // Base + every tenant's A + O + one backward per batch size.
    std::map<std::int64_t, std::uint64_t> backward_by_batch;
    gpu_bytes = quiet.base_gpu;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      gpu_bytes += quiet.demands[i].persistent;
      backward_by_batch[tenants[i].options.finetune.batch_size] =
          quiet.demands[i].backward;
    }
    for (const auto& [batch, backward] : backward_by_batch) {
      gpu_bytes += backward;
    }
  }
  std::printf("perfbench: gpu %.3f MiB, base %.3f MiB\n",
              static_cast<double>(gpu_bytes) / (1 << 20),
              static_cast<double>(quiet.base_gpu) / (1 << 20));

  // Set-up rehearsals: admit and release the tenants. The last set-up
  // stays for the window.
  tracer.enable(args.trace);
  Rig rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    out.setup_s.push_back(build_rig(rig, shape, gpu_bytes, tenants, quiet,
                                    rep + 1 == kSetupReps, args, out));
    if (rep + 1 < kSetupReps) release_tenants(rig, out);
  }
  out.persistent_bytes = rig.server->persistent_gpu_bytes();
  out.executor_width = rig.server->executor().width();
  tracer.enable(false);

  core::Server& server = *rig.server;
  gpusim::Device& gpu = rig.devices->gpu(0);
  Probe probe;
  probe.gpu_peak = [&] { return gpu.stats().peak; };
  probe.reset_peak = [&] { gpu.reset_peak(); };
  probe.sched = [&] { return server.scheduler().stats(); };
  probe.allocs = [&] {
    const auto s = gpu.stats();
    return std::make_pair(s.lifetime_allocs, s.lifetime_bytes);
  };

  std::vector<std::vector<StepRecord>> steps(kTenants);
  std::vector<std::vector<double>> first_losses(kTenants);
  std::atomic<bool> stop{false};
  std::barrier warmed(kTenants + 1);
  std::vector<std::thread> drivers;
  for (int i = 0; i < kTenants; ++i) {
    drivers.emplace_back([&, i] {
      const auto idx = static_cast<std::size_t>(i);
      const auto session = static_cast<std::uint32_t>(i);
      core::Client* client = rig.clients[idx].get();
      const Tenant& t = tenants[idx];
      data::DataLoader loader(t.tokens, t.options.finetune.batch_size,
                              shape.seq, t.loader_seed);
      bool alive = client != nullptr;
      for (int k = 0; alive && k < kWarmupSteps; ++k) {
        StepRecord rec;
        alive = run_step(*client, loader, session, out.counters, rec);
        if (alive) first_losses[idx].push_back(rec.stats.loss);
      }
      warmed.arrive_and_wait();
      while (alive && !stop.load()) {
        StepRecord rec;
        alive = run_step(*client, loader, session, out.counters, rec);
        if (alive) steps[idx].push_back(rec);
      }
    });
  }
  warmed.arrive_and_wait();
  out.window = run_window(args, probe, stop);
  for (auto& d : drivers) d.join();
  for (auto& s : steps) out.steps.insert(out.steps.end(), s.begin(), s.end());
  release_tenants(rig, out);
  probe_lifecycles(rig, tenants, out);
  tracer.enable(false);
  rig.server->stop();

  for (int i = 0; i < kTenants; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const Tenant& t = tenants[idx];
    if (first_losses[idx].empty()) continue;
    check_replay(shape.model, gpu_bytes, t.options, t.tokens, t.loader_seed,
                 first_losses[idx], out.counters);
  }
}

}  // namespace

void run_trunk_compute(const Args& args, RunResult& out) {
  Shape shape;
  shape.model = nn::TransformerConfig::tiny_opt();
  shape.model.dim = 128;
  shape.model.n_layers = 4;
  shape.model.ffn_hidden = 512;
  shape.model.n_heads = 4;
  for (auto& b : shape.batch) b = 4;
  run_steady(args, shape, /*size_gpu=*/false, out);
}

void run_gpu_pressure(const Args& args, RunResult& out) {
  Shape shape;
  shape.model = nn::TransformerConfig::tiny_opt();
  shape.batch[0] = 8;
  shape.batch[1] = 2;
  shape.batch[2] = 8;
  shape.batch[3] = 2;
  run_steady(args, shape, /*size_gpu=*/true, out);
}

}  // namespace perfbench
