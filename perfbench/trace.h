// perfbench's tracing: spans recorded from the benchmark's own code around
// its calls into each layer's public functions, plus decorators of the
// public net::Connection / net::Acceptor interfaces that time frames on the
// client end and on the server end. Nothing inside src/ is instrumented.
//
// Spans live in memory until the run ends. Each has a name, start, end,
// the span that caused it (parent) and the session it belongs to; a span
// opened on one thread becomes the parent of spans its thread opens next
// (ScopedSpan), and a server-side residence span names the client round
// trip it answers as its parent through the link the two ends share.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.h"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  Iteration,        ///< one closed-loop iteration of a driver
  DataBatch,        ///< data::DataLoader::next
  TrainStep,        ///< core::Client::train_step
  Connect,          ///< core::Client::connect
  Disconnect,       ///< core::Client::disconnect
  RoundTrip,        ///< client end: request sent -> reply received
  ServerResidence,  ///< server end: request received -> reply sent
};
inline constexpr int kSpanKinds = 7;

const char* span_name(SpanKind kind);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t session = 0;
  SpanKind kind = SpanKind::Iteration;
  double begin = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
};

/// Process-wide span sink. Recording is off until enable(true).
class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const Span& span);

  /// Every span recorded so far (the run has ended when this is called).
  std::vector<Span> spans() const;

  /// Write all spans as CSV; false if the file cannot be written.
  bool write_csv(const std::string& path) const;

  /// While tracing is on: frames the client ends sent and received, bytes
  /// they sent (up), and bytes the server ends sent (down).
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> bytes_up{0};
  std::atomic<std::uint64_t> bytes_down{0};

 private:
  Tracer();
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span on the calling thread; nests under the thread's open span.
/// Records nothing when tracing is off at construction.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, std::uint32_t session);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }  ///< 0 when not recording

 private:
  Span span_;
  std::uint64_t saved_parent_ = 0;
  bool active_ = false;
};

/// The in-process transport the workloads connect through. With
/// `decorate` off it is a plain net::InprocAcceptor; with it on, both ends
/// of every connection are wrapped to time frames (used by traced runs
/// only, so untraced runs measure the undecorated stack).
class BenchAcceptor final : public menos::net::Acceptor {
 public:
  explicit BenchAcceptor(bool decorate) : decorate_(decorate) {}

  /// Client end of a fresh connection for `session`.
  std::unique_ptr<menos::net::Connection> connect(std::uint32_t session);

  std::unique_ptr<menos::net::Connection> accept() override;
  void close() override { inner_.close(); }

  struct Link;  // state the two ends of one connection share

 private:
  const bool decorate_;
  menos::net::InprocAcceptor inner_;
  std::mutex mutex_;
  std::deque<std::shared_ptr<Link>> pending_;  // guarded by mutex_
};

}  // namespace perfbench
