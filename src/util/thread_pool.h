// Process-wide fork/join thread pool behind the tensor compute kernels.
// It runs data-parallel regions only; asynchronous tasks (session events,
// offload prefetch) go to the serving executor, util::TaskPool.
//
// Design constraints, in priority order:
//   1. Determinism. parallel_for partitions [begin, end) into disjoint
//      chunks and every index is visited by exactly one invocation of the
//      body, so a kernel that writes output[i] only from iteration i
//      produces bit-identical results for ANY thread count — including the
//      serial fallback. Nothing about chunk assignment leaks into results.
//   2. No surprises for the split runtime. Executor workers and client
//      threads already exist (see util/executor.h); the pool is a
//      singleton sized by MENOS_THREADS (default: hardware concurrency)
//      and a second thread
//      arriving while a region is in flight simply runs its range serially
//      instead of queueing behind the first — compute never deadlocks on
//      compute.
//   3. Lazy start. No worker threads exist until the first parallel_for
//      that actually wants them; MENOS_THREADS=1 never spawns any.
//
// Nested parallel_for calls (a kernel body calling another parallel kernel)
// degrade to serial execution on the calling thread, which keeps the pool
// reentrancy-safe without a work-stealing scheduler.
//
// Core budget. The width is a budget of cores, shared with the long-lived
// workers of every live util::TaskPool (the serving executor). A region
// forks at most width - 1 - (live TaskPool workers) helpers, so those
// workers plus a region's threads (caller and helpers) never exceed the
// width. A server whose executor is at least as wide as the pool therefore
// runs its ops serially and gets its parallelism across sessions; a
// process with no executor forks to the full width.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace menos::util {

class ThreadPool {
 public:
  using Index = std::int64_t;
  using Body = std::function<void(Index begin, Index end)>;

  /// The process-wide pool. First call reads MENOS_THREADS (unset, empty or
  /// "0" -> std::thread::hardware_concurrency(), clamped to >= 1).
  static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured parallel width, including the calling thread; always >= 1.
  int num_threads() const noexcept { return num_threads_; }

  /// Resize the pool (joins existing workers; they are respawned lazily).
  /// Must not be called concurrently with parallel_for. Intended for tests
  /// and tools; production sizing goes through MENOS_THREADS.
  void set_num_threads(int n);

  /// Invoke `body` over disjoint subranges covering [begin, end) exactly
  /// once. `grain` is the minimum chunk size (in indices) worth shipping to
  /// another thread; ranges at or below it, a pool of width 1, an exhausted
  /// core budget, nested calls and contended submissions all run
  /// `body(begin, end)` on the calling thread. The first exception thrown
  /// by any chunk is rethrown on the calling thread after all chunks finish.
  void parallel_for(Index begin, Index end, Index grain, const Body& body);

  /// Helpers a region may fork right now under the core budget:
  /// max(0, num_threads() - 1 - cores reserved by live TaskPools).
  int helper_budget() const noexcept;

  /// Worker threads spawned so far. Workers start on demand, up to the
  /// helper budget of the widest region dispatched since the last resize.
  int spawned_workers() const noexcept;

  /// Cores held by long-lived workers outside this pool. util::TaskPool
  /// reserves its width at construction and releases it once its workers
  /// are joined; nothing else should need these.
  static void reserve_cores(int n) noexcept;
  static void release_cores(int n) noexcept;

 private:
  ThreadPool();

  struct Region;

  void stop_workers();
  void worker_main();
  static void run_chunks(Region& region);

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  // All fields below are guarded by an annotated util::Mutex in the .cc
  // (kept out of the header to avoid dragging locking headers into every
  // kernel TU; the MENOS_GUARDED_BY annotations live on State's members).
  struct State;
  std::unique_ptr<State> state_;
};

/// Upper bound on any thread count read from configuration.
constexpr int kMaxThreads = 256;

/// Thread count from the environment variable `name`: 0 when it is unset,
/// empty or "0", else its value clamped to kMaxThreads. A non-integer or
/// negative value fails a MENOS_CHECK naming the variable.
int env_thread_count(const char* name);

/// Convenience forwarder: menos::util::parallel_for(0, n, grain, body).
inline void parallel_for(ThreadPool::Index begin, ThreadPool::Index end,
                         ThreadPool::Index grain,
                         const ThreadPool::Body& body) {
  ThreadPool::instance().parallel_for(begin, end, grain, body);
}

}  // namespace menos::util
