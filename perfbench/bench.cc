#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "core/server.h"
#include "tensor/kernels.h"
#include "trace.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace menos;

namespace {

int os_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

/// Steal and total CPU ticks so far, from the first line of /proc/stat.
std::pair<double, double> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0;
  double steal = 0.0;
  double v = 0.0;
  for (int field = 0; field < 10 && stat >> v; ++field) {
    if (field < 8) total += v;  // guest time is already in user time
    if (field == 7) steal = v;
  }
  return {steal, total};
}

Snapshot snapshot(const Probe& probe) {
  Tracer& tracer = Tracer::instance();
  Snapshot s;
  s.sched = probe.sched();
  const auto [allocs, bytes] = probe.allocs();
  s.allocs = allocs;
  s.alloc_bytes = bytes;
  s.frames = tracer.frames.load();
  s.bytes_up = tracer.bytes_up.load();
  s.bytes_down = tracer.bytes_down.load();
  s.cpu_s = cpu_seconds();
  return s;
}

}  // namespace

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

Window run_window(const Args& args, const Probe& probe,
                  std::atomic<bool>& stop) {
  Tracer& tracer = Tracer::instance();
  Window w;
  const auto [steal0, total0] = cpu_ticks();
  w.begin = snapshot(probe);
  probe.reset_peak();
  tracer.enable(args.trace);
  const double t0 = tracer.now();
  w.whole = {t0, t0 + args.seconds};
  // Trace runs sample the OS thread count every 10 ms.
  for (double now = t0; now < w.whole.end; now = tracer.now()) {
    if (args.trace) w.peak_threads = std::max(w.peak_threads, os_threads());
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::clamp(w.whole.end - now, 0.0, 0.01)));
  }
  w.gpu_peak = probe.gpu_peak();
  w.end = snapshot(probe);
  const auto [steal1, total1] = cpu_ticks();
  if (total1 > total0) w.steal_share = (steal1 - steal0) / (total1 - total0);
  stop.store(true);
  return w;
}

bool run_step(core::Client& client, data::DataLoader& loader,
              std::uint32_t session, Counters& counters, StepRecord& out) {
  Tracer& tracer = Tracer::instance();
  ScopedSpan iteration(SpanKind::Iteration, session);
  data::Batch batch;
  {
    ScopedSpan span(SpanKind::DataBatch, session);
    batch = loader.next();
  }
  counters.attempted.fetch_add(1);
  try {
    ScopedSpan span(SpanKind::TrainStep, session);
    out.span = span.id();
    out.time.begin = tracer.now();
    out.stats = client.train_step(batch);
    out.time.end = tracer.now();
  } catch (const std::exception& e) {
    counters.failed.fetch_add(1);
    std::fprintf(stderr, "perfbench: session %u train_step failed: %s\n",
                 session, e.what());
    return false;
  }
  out.session = session;
  out.tokens = batch.batch_size * batch.seq_len;
  if (!std::isfinite(out.stats.loss)) {
    counters.failed.fetch_add(1);
    counters.correct.store(false);
    std::fprintf(stderr, "perfbench: session %u non-finite loss\n", session);
  }
  return true;
}

void check_replay(const nn::TransformerConfig& model, std::size_t gpu_bytes,
                  const core::ClientOptions& options,
                  const std::vector<std::int32_t>& tokens,
                  std::uint64_t loader_seed,
                  const std::vector<double>& expected, Counters& counters) {
  counters.attempted.fetch_add(1);
  std::vector<double> losses;
  try {
    gpusim::DeviceManager devices(1, gpu_bytes);
    BenchAcceptor acceptor(false);
    core::Server server(core::ServerConfig{}, devices, model);
    server.start(acceptor);
    gpusim::DeviceManager client_devices(1, 1ull << 30);
    core::Client client(options, acceptor.connect(0), client_devices.gpu(0));
    client.connect();
    data::DataLoader loader(tokens, options.finetune.batch_size,
                            options.finetune.seq_len, loader_seed);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      losses.push_back(client.train_step(loader.next()).loss);
    }
    client.disconnect();
    server.stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: solo replay failed: %s\n", e.what());
  }
  if (losses != expected) {
    counters.failed.fetch_add(1);
    counters.correct.store(false);
    std::fprintf(stderr,
                 "perfbench: solo replay of adapter seed %llu does not "
                 "reproduce the served losses bit for bit\n",
                 static_cast<unsigned long long>(
                     options.finetune.adapter_seed));
  }
}

QuietProfile quiet_profile(const nn::TransformerConfig& model,
                           const std::vector<core::ClientOptions>& configs) {
  QuietProfile q;
  gpusim::DeviceManager devices(1, 1ull << 30);
  BenchAcceptor acceptor(false);
  core::Server server(core::ServerConfig{}, devices, model);
  q.base_gpu = devices.gpu(0).allocated();
  server.start(acceptor);
  gpusim::DeviceManager client_devices(1, 1ull << 30);
  // Earlier clients stay connected (idle): a closing session frees memory
  // asynchronously, which would skew the next profile.
  std::vector<std::unique_ptr<core::Client>> clients;
  for (const core::ClientOptions& options : configs) {
    const std::size_t before = server.persistent_gpu_bytes();
    clients.push_back(std::make_unique<core::Client>(
        options, acceptor.connect(0), client_devices.gpu(0)));
    clients.back()->connect();
    q.demands.push_back({clients.back()->server_forward_bytes(),
                         clients.back()->server_backward_bytes(),
                         server.persistent_gpu_bytes() - before});
  }
  for (auto& c : clients) c->disconnect();
  server.stop();
  return q;
}

bool drifted(const core::Client& client, const Demand& quiet) {
  return client.server_forward_bytes() != quiet.forward ||
         client.server_backward_bytes() != quiet.backward;
}

core::ClientOptions client_options(const nn::TransformerConfig& model,
                                   std::int64_t batch, std::int64_t seq,
                                   std::uint64_t adapter_seed,
                                   const std::string& name) {
  core::ClientOptions options;
  options.finetune.client_name = name;
  options.finetune.model = model;
  options.finetune.batch_size = batch;
  options.finetune.seq_len = seq;
  options.finetune.adapter_seed = adapter_seed;
  return options;
}

std::vector<std::int32_t> corpus_tokens(std::uint64_t seed) {
  return data::CharTokenizer().encode(
      data::make_shakespeare_like(8000, seed).text);
}

double measure_mm_gflops() {
  constexpr tensor::Index m = 128, k = 128, n = 512;
  util::Rng rng(7);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  rng.fill_normal(a.data(), a.size(), 1.0f);
  rng.fill_normal(b.data(), b.size(), 1.0f);
  constexpr int kCallsPerRep = 20;
  std::vector<double> gflops;
  const auto start = std::chrono::steady_clock::now();
  while (gflops.size() < 10 ||
         std::chrono::steady_clock::now() - start < std::chrono::seconds(1)) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kCallsPerRep; ++i) {
      tensor::kernels::mm(a.data(), b.data(), c.data(), m, k, n);
    }
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    gflops.push_back(2.0 * m * k * n * kCallsPerRep / s * 1e-9);
  }
  if (!std::isfinite(c[0])) std::fprintf(stderr, "perfbench: mm overflow\n");
  return percentile(gflops, 0.5);
}

// ---------------------------------------------------------------------------
// Reporting

namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string samples;  ///< how the value was obtained, for the table
  /// False for a figure printed in the table but left out of the JSON
  /// result, so nothing gates on it.
  bool gated = true;
};

std::string count_of(std::size_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

/// A percentile metric's sample note, flagging a tail the ten-beyond rule
/// does not support.
std::string tail_note(std::size_t n, double p, const char* what) {
  std::string note = count_of(n, what);
  if (!tail_supported(n, p)) {
    note += " (under-sampled: fewer than 10 beyond p" +
            std::to_string(static_cast<int>(p * 100)) + ")";
  }
  return note;
}

std::vector<const StepRecord*> steps_in(const RunResult& r,
                                        const Interval& window) {
  std::vector<const StepRecord*> out;
  for (const StepRecord& s : r.steps) {
    if (s.time.begin >= window.begin && s.time.begin < window.end) {
      out.push_back(&s);
    }
  }
  return out;
}

/// Tokens per second over `window`.
double tokens_per_s(const RunResult& r, const Interval& window) {
  std::vector<Work> work;
  for (const StepRecord& s : r.steps) {
    work.push_back({s.time, static_cast<double>(s.tokens)});
  }
  return window_rate(work, window);
}

/// Steps inside `window`, fractional at the edges (per-step denominators).
double step_count(const RunResult& r, const Interval& window) {
  double n = 0.0;
  for (const StepRecord& s : r.steps) n += window_share(s.time, window);
  return n;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_env(const RunResult& r) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  const auto blocks = tensor::kernels::block_config();
  std::printf(
      "env {\"nproc\": %d, \"hardware_concurrency\": %u, \"compiler\": "
      "\"%s\", \"build_type\": \"%s\", \"vector_arch\": \"%s\", "
      "\"block_config\": {\"mc\": %lld, \"nc\": %lld, \"kc\": %lld}, "
      "\"micro_tile\": \"%lldx%lld\", \"executor_width\": %d, "
      "\"intra_op_width\": %d",
      nproc, std::thread::hardware_concurrency(),
#if defined(__clang__)
      "clang " __clang_version__,
#elif defined(__GNUC__)
      "gcc " __VERSION__,
#else
      "unknown",
#endif
      PERFBENCH_BUILD_TYPE, tensor::kernels::vector_arch(),
      static_cast<long long>(blocks.mc), static_cast<long long>(blocks.nc),
      static_cast<long long>(blocks.kc),
      static_cast<long long>(tensor::kernels::micro_tile_rows()),
      static_cast<long long>(tensor::kernels::micro_tile_cols()),
      r.executor_width, util::ThreadPool::instance().num_threads());
  for (const char* var :
       {"MENOS_THREADS", "MENOS_EXECUTOR_THREADS", "MENOS_CACHING_ALLOC"}) {
    if (const char* v = std::getenv(var)) {
      std::printf(", \"%s\": \"%s\"", var, v);
    }
  }
  std::printf("}\n");
}

std::vector<Metric> end_to_end(const RunResult& r) {
  const Window& w = r.window;
  std::vector<Metric> m;
  const auto steps = steps_in(r, w.whole);
  std::vector<double> step_ms;
  for (const StepRecord* s : steps) step_ms.push_back(s->time.length() * 1e3);
  std::vector<double> open_ms;
  for (double s : r.connect_s) open_ms.push_back(s * 1e3);
  const double attempted = static_cast<double>(r.counters.attempted.load());
  const double failed = static_cast<double>(r.counters.failed.load());
  const double mib = 1024.0 * 1024.0;

  m.push_back({"tokens_per_s", tokens_per_s(r, w.whole), "tokens/s",
               count_of(step_ms.size(), "steps")});
  m.push_back({"step_ms_p50", percentile(step_ms, 0.5), "ms",
               tail_note(step_ms.size(), 0.5, "steps")});
  m.push_back({"step_ms_p90", percentile(step_ms, 0.9), "ms",
               tail_note(step_ms.size(), 0.9, "steps")});
  m.push_back({"sessions_per_s", r.sessions_per_s, "1/s",
               count_of(r.lifecycles, "lifecycles")});
  // Connect latency is a chain of sub-millisecond thread wake-ups, which
  // on a shared VM move with the host's load more than with the program
  // (p50 shifted 29% between two sets of runs at 0% and 6% steal), so it
  // is shown, not gated; sessions_per_s gates the lifecycle path.
  m.push_back({"session_open_ms_p50", percentile(open_ms, 0.5), "ms",
               tail_note(open_ms.size(), 0.5, "connects"), false});
  m.push_back({"session_open_ms_p90", percentile(open_ms, 0.9), "ms",
               tail_note(open_ms.size(), 0.9, "connects"), false});
  m.push_back({"gpu_peak_mb", static_cast<double>(w.gpu_peak) / mib, "MiB",
               "high-water over the window"});
  m.push_back({"gpu_persistent_mb",
               static_cast<double>(r.persistent_bytes) / mib, "MiB",
               "all tenants connected"});
  m.push_back({"setup_s", percentile(r.setup_s, 0.5), "s",
               count_of(r.setup_s.size(), "set-ups")});
  m.push_back({"success_ratio",
               attempted > 0.0 ? 1.0 - failed / attempted : 0.0, "ratio",
               count_of(static_cast<std::size_t>(attempted), "operations")});
  return m;
}

std::vector<Metric> per_layer(const RunResult& r) {
  const Window& w = r.window;
  const Interval& window = w.whole;
  // A step that began just as tracing switched on may have no spans.
  std::vector<const StepRecord*> steps;
  for (const StepRecord* s : steps_in(r, window)) {
    if (s->span != 0) steps.push_back(s);
  }
  const double n_steps = step_count(r, window);
  const auto per_step = [&](double v) {
    return n_steps > 0.0 ? v / n_steps : 0.0;
  };

  // Index the spans: children by parent, and each span's kind.
  const std::vector<Span> spans = Tracer::instance().spans();
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_id[spans[i].id] = i;
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  const auto kids = [&](std::uint64_t id) -> const std::vector<std::size_t>& {
    static const std::vector<std::size_t> none;
    const auto it = children.find(id);
    return it == children.end() ? none : it->second;
  };
  const auto interval = [](const Span& s) { return Interval{s.begin, s.end}; };

  // Per-step attribution: round = the train_step call; its round trips and
  // the server residence inside each.
  double round_s = 0.0, client_s = 0.0, server_s = 0.0, wait_s = 0.0;
  double rtt_s = 0.0, residence_s = 0.0;
  std::vector<double> wait_ms;
  for (const StepRecord* s : steps) {
    round_s += s->time.length();
    client_s += s->stats.client_compute_s;
    server_s += s->stats.server_compute_s;
    wait_s += s->stats.server_wait_s;
    wait_ms.push_back(s->stats.server_wait_s * 1e3);
    for (std::size_t rt : kids(s->span)) {
      if (spans[rt].kind != SpanKind::RoundTrip) continue;
      rtt_s += spans[rt].end - spans[rt].begin;
      for (std::size_t res : kids(spans[rt].id)) {
        residence_s += spans[res].end - spans[res].begin;
      }
    }
  }
  const double n = static_cast<double>(steps.size());
  const auto mean_ms = [&](double total_s) {
    return n > 0.0 ? total_s / n * 1e3 : 0.0;
  };

  // Self time per span kind, over spans that began in the window.
  double self_s[kSpanKinds] = {};
  std::vector<double> connect_ms, disconnect_ms, batch_ms;
  for (const Span& s : spans) {
    const double ms = (s.end - s.begin) * 1e3;
    if (s.kind == SpanKind::Connect) connect_ms.push_back(ms);
    if (s.kind == SpanKind::Disconnect) disconnect_ms.push_back(ms);
    if (s.begin < window.begin || s.begin >= window.end) continue;
    if (s.kind == SpanKind::DataBatch) batch_ms.push_back(ms);
    std::vector<Interval> covered;
    for (std::size_t c : kids(s.id)) covered.push_back(interval(spans[c]));
    self_s[static_cast<int>(s.kind)] += self_time(interval(s), covered);
  }

  const Snapshot& b = w.begin;
  const Snapshot& e = w.end;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  double window_tokens = 0.0;
  for (const StepRecord& s : r.steps) {
    window_tokens +=
        static_cast<double>(s.tokens) * window_share(s.time, window);
  }

  std::vector<Metric> m;
  const std::string nsteps = count_of(steps.size(), "traced steps");
  m.push_back({"core.client_compute_ms", mean_ms(client_s), "ms", nsteps});
  m.push_back({"core.server_compute_ms", mean_ms(server_s), "ms", nsteps});
  m.push_back({"core.connect_ms", percentile(connect_ms, 0.5), "ms",
               tail_note(connect_ms.size(), 0.5, "connect spans")});
  m.push_back({"core.disconnect_ms", percentile(disconnect_ms, 0.5), "ms",
               tail_note(disconnect_ms.size(), 0.5, "disconnect spans")});
  m.push_back({"core.profile_drift_sessions",
               static_cast<double>(r.drift_sessions), "sessions",
               count_of(r.drift_checked, "sessions checked")});
  m.push_back({"core.profile_drift_share",
               ratio(static_cast<double>(r.drift_sessions),
                     static_cast<double>(r.drift_checked)),
               "ratio", count_of(r.drift_checked, "sessions checked")});
  m.push_back({"tensor.mm_gflops", r.mm_gflops, "GFLOP/s",
               "median of >= 10 reps, [128x128]x[128x512]"});
  m.push_back({"sched.wait_ms_p50", percentile(wait_ms, 0.5), "ms",
               tail_note(wait_ms.size(), 0.5, "traced steps")});
  m.push_back({"sched.wait_ms_p90", percentile(wait_ms, 0.9), "ms",
               tail_note(wait_ms.size(), 0.9, "traced steps")});
  m.push_back({"sched.wait_share", ratio(wait_s, round_s), "ratio", nsteps});
  m.push_back({"sched.backfill_share",
               ratio(static_cast<double>(e.sched.backfill_grants -
                                         b.sched.backfill_grants),
                     static_cast<double>(e.sched.grants - b.sched.grants)),
               "ratio", count_of(e.sched.grants - b.sched.grants, "grants")});
  m.push_back({"sched.blocked_cycles_per_request",
               ratio(static_cast<double>(e.sched.blocked_cycles -
                                         b.sched.blocked_cycles),
                     static_cast<double>(e.sched.requests - b.sched.requests)),
               "cycles/request",
               count_of(e.sched.requests - b.sched.requests, "requests")});
  m.push_back({"net.frames_per_step",
               per_step(static_cast<double>(e.frames - b.frames)),
               "frames/step", nsteps});
  m.push_back({"net.bytes_up_per_step",
               per_step(static_cast<double>(e.bytes_up - b.bytes_up)),
               "B/step", nsteps});
  m.push_back({"net.bytes_down_per_step",
               per_step(static_cast<double>(e.bytes_down - b.bytes_down)),
               "B/step", nsteps});
  m.push_back({"net.server_residence_ms", mean_ms(residence_s), "ms", nsteps});
  m.push_back({"net.transit_ms", mean_ms(rtt_s - residence_s), "ms", nsteps});
  m.push_back({"gpusim.allocs_per_step",
               per_step(static_cast<double>(e.allocs - b.allocs)),
               "allocs/step", nsteps});
  m.push_back({"gpusim.alloc_bytes_per_step",
               per_step(static_cast<double>(e.alloc_bytes - b.alloc_bytes)),
               "B/step", nsteps});
  m.push_back({"data.batch_ms", mean(batch_ms), "ms",
               count_of(batch_ms.size(), "batches")});
  m.push_back({"fleet.placement_spread",
               static_cast<double>(r.placement_spread), "sessions",
               "max - min placed per shard"});
  m.push_back({"util.peak_os_threads", static_cast<double>(w.peak_threads),
               "threads", "sampled every 10 ms"});
  m.push_back({"util.cpu_s_per_token", ratio(e.cpu_s - b.cpu_s, window_tokens),
               "s/token", nsteps});
  m.push_back({"trace.unattributed_share",
               round_s > 0.0 ? unattributed_share(round_s, client_s,
                                                  rtt_s - residence_s,
                                                  residence_s)
                             : 0.0,
               "ratio", nsteps});
  m.push_back({"trace.tokens_per_s", tokens_per_s(r, window), "tokens/s",
               nsteps});
  for (int k = 0; k < kSpanKinds; ++k) {
    m.push_back({std::string("self.") + span_name(static_cast<SpanKind>(k)) +
                     "_ms",
                 per_step(self_s[k]) * 1e3, "ms/step", nsteps});
  }
  return m;
}

}  // namespace

void report(const Args& args, const RunResult& r) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  print_env(r);
  std::printf("host: %.1f%% of CPU time stolen by the hypervisor during the "
              "window\n",
              r.window.steal_share * 100.0);
  const std::vector<Metric> metrics = args.trace ? per_layer(r) : end_to_end(r);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %-14s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples.c_str(),
                m.gated ? "" : " (not gated)");
  }
  const auto attempted = r.counters.attempted.load();
  const auto failed = r.counters.failed.load();
  std::printf("  %-36s %16.6f %-14s %llu failed of %llu attempted\n",
              "fail_ratio",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0,
              "ratio", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  correct: %s\n", r.counters.correct.load() ? "yes" : "NO");

  std::string json = "{\"correct\": ";
  json += r.counters.correct.load() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.gated) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
