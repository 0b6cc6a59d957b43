// session_churn: four drivers each open a session through a two-shard
// fleet::Fleet with least-loaded placement, run two train steps and close
// it, over and over. The model is tiny (dim 32, 3 layers, 2 heads, ffn 64)
// and memory ample, so the time goes to the session lifecycle: Hello,
// profiling or a profile-cache hit, A + O reservation, strand and poller
// registration, router placement, Bye and teardown. Sessions arrive while
// others train, which is where profiles drift (see README.md).
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "bench.h"
#include "core/server.h"
#include "fleet/fleet.h"
#include "trace.h"

namespace perfbench {

using namespace menos;

namespace {

constexpr int kDrivers = 4;
constexpr int kShards = 2;
constexpr int kStepsPerSession = 2;
/// Sessions each driver runs before the window opens; the first one is
/// replayed solo for the correctness check. They profile configurations
/// while other sessions train, as real arrivals do.
constexpr int kWarmupSessions = 20;
constexpr int kSetupReps = 101;
constexpr std::size_t kGpuBytesPerShard = 256ull << 20;

/// The (batch, seq) menu sessions draw from. Fixed, so every seed has the
/// same mix in expectation; the seed picks the order.
constexpr std::pair<std::int64_t, std::int64_t> kMenu[] = {
    {1, 16}, {2, 8}, {2, 16}, {4, 8}};
constexpr std::size_t kMenuSize = sizeof kMenu / sizeof kMenu[0];

nn::TransformerConfig churn_model() {
  nn::TransformerConfig c = nn::TransformerConfig::tiny_opt();
  c.dim = 32;
  c.n_layers = 3;
  c.n_heads = 2;
  c.ffn_hidden = 64;
  return c;
}

/// One session's inputs, all drawn from its driver's seeded generator.
struct SessionSpec {
  std::size_t config = 0;  ///< index into kMenu
  core::ClientOptions options;
  std::uint64_t loader_seed = 0;
};

SessionSpec draw_session(util::Rng& rng, const nn::TransformerConfig& model) {
  SessionSpec s;
  s.config = static_cast<std::size_t>(rng.next_below(kMenuSize));
  s.options = client_options(model, kMenu[s.config].first,
                             kMenu[s.config].second, rng.next_u64(), "churn");
  s.loader_seed = rng.next_u64();
  return s;
}

/// One quiet-server profile per menu configuration, in menu order.
QuietProfile quiet_menu_profile(const nn::TransformerConfig& model) {
  std::vector<core::ClientOptions> configs;
  for (const auto& [batch, seq] : kMenu) {
    configs.push_back(client_options(model, batch, seq, 1, "quiet"));
  }
  return quiet_profile(model, configs);
}

fleet::FleetConfig fleet_config() {
  fleet::FleetConfig fc;
  fc.shards = kShards;
  fc.policy = "least-loaded";
  fc.gpu_bytes_per_shard = kGpuBytesPerShard;
  return fc;
}

struct Lifecycle {
  Interval life;  ///< client construction -> disconnect returned
  double connect_begin = 0.0;
  double connect_s = 0.0;
  bool drifted = false;  ///< served demands differ from the quiet profile
};

/// Wait until no shard has a live session and every shard holds only its
/// base model, so least-loaded placement sees the shards level.
void wait_drained(fleet::Fleet& f) {
  Tracer& tracer = Tracer::instance();
  const double give_up = tracer.now() + 10.0;
  const auto level = [&] {
    for (int i = 0; i < kShards; ++i) {
      if (f.shard(i).session_count() != 0 ||
          f.shard(i).persistent_gpu_bytes() !=
              f.shard(0).persistent_gpu_bytes()) {
        return false;
      }
    }
    return true;
  };
  while (!level() && tracer.now() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// Make sure every (shard, configuration) pair has been profiled, so no
/// profiling run is in flight when the window resets the GPU peaks. Two
/// sessions of each configuration connect in turn and stay open: on level
/// shards, least-loaded placement puts the first on shard 0 and the second
/// on shard 1, which levels the shards again for the next pair. Warm-up has
/// usually profiled every pair already; then these are all cache hits.
/// Returns the fleet's persistent bytes once kDrivers sessions are open.
std::size_t prime_profiles(fleet::Fleet& f, BenchAcceptor& acceptor,
                           const nn::TransformerConfig& model,
                           RunResult& out) {
  static_assert(kShards == 2, "priming places one session per shard");
  static_assert(kDrivers % kShards == 0 && kDrivers / kShards <= kMenuSize);
  gpusim::DeviceManager client_devices(1, 1ull << 30);
  const auto persistent = [&] {
    std::size_t sum = 0;
    for (int i = 0; i < kShards; ++i) sum += f.shard(i).persistent_gpu_bytes();
    return sum;
  };
  wait_drained(f);
  std::size_t with_drivers = 0;
  std::vector<std::unique_ptr<core::Client>> open;
  for (const auto& [batch, seq] : kMenu) {
    for (int i = 0; i < kShards; ++i) {
      out.counters.attempted.fetch_add(2);  // connect + disconnect
      open.push_back(std::make_unique<core::Client>(
          client_options(model, batch, seq, 1, "prime"), acceptor.connect(0),
          client_devices.gpu(0)));
      open.back()->connect();
    }
    if (open.size() == kDrivers) with_drivers = persistent();
  }
  for (auto& c : open) c->disconnect();
  wait_drained(f);
  return with_drivers;
}

}  // namespace

void run_session_churn(const Args& args, RunResult& out) {
  Tracer& tracer = Tracer::instance();
  const nn::TransformerConfig model = churn_model();
  const QuietProfile quiet = quiet_menu_profile(model);

  // Fleet construction and start, repeated; the last one serves.
  std::unique_ptr<BenchAcceptor> acceptor;
  std::unique_ptr<fleet::Fleet> fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    acceptor.reset();
    const double t0 = tracer.now();
    acceptor = std::make_unique<BenchAcceptor>(args.trace);
    fleet = std::make_unique<fleet::Fleet>(fleet_config(), model);
    fleet->start(*acceptor);
    out.setup_s.push_back(tracer.now() - t0);
    if (rep + 1 < kSetupReps) fleet->stop();
  }
  out.executor_width = fleet->executor().width();

  fleet::Fleet& f = *fleet;
  Probe probe;
  probe.gpu_peak = [&] {
    std::size_t peak = 0;
    for (int i = 0; i < kShards; ++i) {
      peak = std::max(peak, f.devices(i).gpu(0).stats().peak);
    }
    return peak;
  };
  probe.reset_peak = [&] {
    for (int i = 0; i < kShards; ++i) f.devices(i).gpu(0).reset_peak();
  };
  probe.sched = [&] {
    sched::SchedulerStats sum;
    for (int i = 0; i < kShards; ++i) {
      const auto s = f.shard(i).scheduler().stats();
      sum.requests += s.requests;
      sum.grants += s.grants;
      sum.backfill_grants += s.backfill_grants;
      sum.blocked_cycles += s.blocked_cycles;
    }
    return sum;
  };
  probe.allocs = [&] {
    std::pair<std::size_t, std::size_t> sum;
    for (int i = 0; i < kShards; ++i) {
      const auto s = f.devices(i).gpu(0).stats();
      sum.first += s.lifetime_allocs;
      sum.second += s.lifetime_bytes;
    }
    return sum;
  };

  std::atomic<std::uint32_t> next_session{0};
  std::atomic<bool> drift_shown[kMenuSize] = {};
  std::vector<std::vector<StepRecord>> steps(kDrivers);
  std::vector<std::vector<Lifecycle>> lives(kDrivers);
  // The first session of each driver, replayed solo afterwards.
  std::vector<SessionSpec> replay_specs(kDrivers);
  std::vector<std::vector<double>> replay_losses(kDrivers);
  std::vector<std::vector<std::int32_t>> tokens(kDrivers);
  std::atomic<bool> stop{false};
  std::barrier warmed(kDrivers + 1);
  std::barrier go(kDrivers + 1);
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      const auto idx = static_cast<std::size_t>(d);
      util::Rng rng(args.seed * 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(d));
      tokens[idx] = corpus_tokens(rng.next_u64());
      gpusim::DeviceManager client_devices(1, 1ull << 30);

      // One lifecycle; returns its losses (empty if it failed).
      const auto lifecycle = [&](const SessionSpec& spec) {
        std::vector<double> losses;
        const std::uint32_t session = next_session.fetch_add(1);
        Lifecycle lc;
        lc.life.begin = tracer.now();
        out.counters.attempted.fetch_add(1);
        std::unique_ptr<core::Client> client;
        try {
          client = std::make_unique<core::Client>(
              spec.options, acceptor->connect(session),
              client_devices.gpu(0));
          ScopedSpan span(SpanKind::Connect, session);
          lc.connect_begin = tracer.now();
          client->connect();
          lc.connect_s = tracer.now() - lc.connect_begin;
        } catch (const std::exception& e) {
          out.counters.failed.fetch_add(1);
          std::fprintf(stderr, "perfbench: session %u connect failed: %s\n",
                       session, e.what());
          return losses;
        }
        const Demand& ref = quiet.demands[spec.config];
        lc.drifted = drifted(*client, ref);
        if (lc.drifted && !drift_shown[spec.config].exchange(true)) {
          std::fprintf(stderr,
                       "perfbench: profile drift, batch %lld x seq %lld: "
                       "fwd/bwd %llu/%llu B served, %llu/%llu B quiet\n",
                       static_cast<long long>(kMenu[spec.config].first),
                       static_cast<long long>(kMenu[spec.config].second),
                       static_cast<unsigned long long>(
                           client->server_forward_bytes()),
                       static_cast<unsigned long long>(
                           client->server_backward_bytes()),
                       static_cast<unsigned long long>(ref.forward),
                       static_cast<unsigned long long>(ref.backward));
        }
        data::DataLoader loader(tokens[idx], spec.options.finetune.batch_size,
                                spec.options.finetune.seq_len,
                                spec.loader_seed);
        for (int s = 0; s < kStepsPerSession; ++s) {
          StepRecord rec;
          if (!run_step(*client, loader, session, out.counters, rec)) {
            return std::vector<double>{};
          }
          losses.push_back(rec.stats.loss);
          steps[idx].push_back(rec);
        }
        out.counters.attempted.fetch_add(1);
        {
          ScopedSpan span(SpanKind::Disconnect, session);
          client->disconnect();
        }
        lc.life.end = tracer.now();
        lives[idx].push_back(lc);
        return losses;
      };

      for (int w = 0; w < kWarmupSessions; ++w) {
        const SessionSpec spec = draw_session(rng, model);
        std::vector<double> losses = lifecycle(spec);
        if (w == 0) {
          replay_specs[idx] = spec;
          replay_losses[idx] = std::move(losses);
        }
      }
      steps[idx].clear();
      lives[idx].clear();
      warmed.arrive_and_wait();
      go.arrive_and_wait();
      while (!stop.load()) lifecycle(draw_session(rng, model));
    });
  }
  warmed.arrive_and_wait();
  out.persistent_bytes = prime_profiles(f, *acceptor, model, out);
  go.arrive_and_wait();
  out.window = run_window(args, probe, stop);
  for (auto& d : drivers) d.join();
  tracer.enable(false);

  const std::vector<int> placed = f.router().placements();
  const auto [lo, hi] = std::minmax_element(placed.begin(), placed.end());
  out.placement_spread = *hi - *lo;
  fleet->stop();

  const Interval& window = out.window.whole;
  std::vector<Work> sessions;
  for (std::size_t d = 0; d < kDrivers; ++d) {
    out.steps.insert(out.steps.end(), steps[d].begin(), steps[d].end());
    for (const Lifecycle& lc : lives[d]) {
      sessions.push_back({lc.life, 1.0});
      if (lc.connect_begin >= window.begin && lc.connect_begin < window.end) {
        out.connect_s.push_back(lc.connect_s);
        ++out.drift_checked;
        if (lc.drifted) ++out.drift_sessions;
      }
    }
  }
  out.sessions_per_s = window_rate(sessions, window);
  out.lifecycles = out.connect_s.size();

  for (std::size_t d = 0; d < kDrivers; ++d) {
    if (replay_losses[d].empty()) continue;
    check_replay(model, 1ull << 30, replay_specs[d].options, tokens[d],
                 replay_specs[d].loader_seed, replay_losses[d], out.counters);
  }
}

}  // namespace perfbench
