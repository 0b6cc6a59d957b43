// Shared pieces of the perfbench workloads: arguments, the records driver
// threads keep, the timed window the main thread runs, and reporting.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/client.h"
#include "data/dataset.h"
#include "sched/scheduler.h"
#include "stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< trace runs write their spans here
};

/// One Client::train_step, timed on the driver thread.
struct StepRecord {
  std::uint32_t session = 0;
  Interval time;  ///< client-observed call, tracer-epoch seconds
  menos::core::StepStats stats;
  std::int64_t tokens = 0;
  std::uint64_t span = 0;  ///< its core.train_step span (0 = untraced)
};

/// Failures are counted, never retried: an OOM or an Error reply ends the
/// session it hit and shows in fail_ratio.
struct Counters {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  /// False once a loss is non-finite or differs from its solo replay.
  std::atomic<bool> correct{true};
};

/// What the main thread samples from a server or a fleet.
struct Probe {
  std::function<std::size_t()> gpu_peak;    ///< max over GPUs
  std::function<void()> reset_peak;
  std::function<menos::sched::SchedulerStats()> sched;  ///< summed
  /// Lifetime allocate() calls and bytes, summed over GPUs.
  std::function<std::pair<std::size_t, std::size_t>()> allocs;
};

/// Layer counters at one instant (snapshotted at both ends of the window).
struct Snapshot {
  menos::sched::SchedulerStats sched;
  std::size_t allocs = 0;
  std::size_t alloc_bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  double cpu_s = 0.0;
};

struct Window {
  Interval whole;
  std::size_t gpu_peak = 0;  ///< high-water over the window
  int peak_threads = 0;  ///< trace runs only
  /// Share of the host's CPU time stolen by the hypervisor during the
  /// window (from /proc/stat): context for how noisy the host was.
  double steal_share = 0.0;
  Snapshot begin;
  Snapshot end;
};

/// Run the timed window on the calling thread: reset the GPU peak once at
/// its start, trace it whole in trace runs (sampling the OS thread count
/// every 10 ms), snapshot the layer counters at both ends, and set `stop`
/// at the end. Drivers must already be released when it
/// starts. No profiling may be in flight when it starts: the peak reset
/// would corrupt it.
Window run_window(const Args& args, const Probe& probe,
                  std::atomic<bool>& stop);

/// Everything a workload hands to the report.
struct RunResult {
  std::vector<StepRecord> steps;
  std::vector<double> connect_s;  ///< session_open samples
  std::vector<double> setup_s;    ///< one per set-up repetition
  double sessions_per_s = 0.0;
  std::size_t lifecycles = 0;  ///< sessions_per_s sample count
  /// Measured sessions (the serving tenants' admission on the steady
  /// workloads, the window's sessions on session_churn) and how many of
  /// them were served demands other than a quiet-server profile's.
  std::size_t drift_checked = 0;
  std::size_t drift_sessions = 0;
  std::size_t persistent_bytes = 0;  ///< all tenants connected
  int placement_spread = 0;
  int executor_width = 0;
  double mm_gflops = 0.0;  ///< trace runs only
  Window window;
  Counters counters;
};

void run_trunk_compute(const Args& args, RunResult& out);
void run_gpu_pressure(const Args& args, RunResult& out);
void run_session_churn(const Args& args, RunResult& out);

/// Print the environment block, every metric with unit and sample count,
/// and (last line of stdout) the JSON result.
void report(const Args& args, const RunResult& result);

/// Median GFLOPS of tensor::kernels::mm at trunk_compute's FFN shape.
double measure_mm_gflops();

/// Seconds of CPU this process has used (user + system).
double cpu_seconds();

/// One closed-loop iteration: a data::DataLoader batch, then
/// Client::train_step, each under its span. Counts the step as attempted;
/// false (and counted failed) when the step threw, which ends the session.
/// A non-finite loss is a failure and makes the run incorrect.
bool run_step(menos::core::Client& client, menos::data::DataLoader& loader,
              std::uint32_t session, Counters& counters, StepRecord& out);

/// Correctness check: replay `expected.size()` steps of one tenant alone on
/// a fresh server and require bit-identical losses. Counts one attempted
/// operation, and a failure on any mismatch or error.
void check_replay(const menos::nn::TransformerConfig& model,
                  std::size_t gpu_bytes,
                  const menos::core::ClientOptions& options,
                  const std::vector<std::int32_t>& tokens,
                  std::uint64_t loader_seed,
                  const std::vector<double>& expected, Counters& counters);

/// Forward/backward demands and A + O of one client configuration.
struct Demand {
  std::uint64_t forward = 0;
  std::uint64_t backward = 0;
  std::size_t persistent = 0;
};

/// Profiles taken on a quiet server (1 GiB GPU): the reference for profile
/// drift. Each configuration connects in turn while nothing trains.
struct QuietProfile {
  std::size_t base_gpu = 0;  ///< GPU bytes of the base model alone
  std::vector<Demand> demands;  ///< one per configuration, in order
};

QuietProfile quiet_profile(
    const menos::nn::TransformerConfig& model,
    const std::vector<menos::core::ClientOptions>& configs);

/// True when `client` (connected) was served demands other than `quiet`.
bool drifted(const menos::core::Client& client, const Demand& quiet);

/// Build one client's options for a workload's model and shape.
menos::core::ClientOptions client_options(
    const menos::nn::TransformerConfig& model, std::int64_t batch,
    std::int64_t seq, std::uint64_t adapter_seed, const std::string& name);

/// The corpus a tenant trains on, tokenized.
std::vector<std::int32_t> corpus_tokens(std::uint64_t seed);

}  // namespace perfbench
