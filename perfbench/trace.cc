#include "trace.h"

#include <cstdio>
#include <optional>
#include <utility>

namespace perfbench {

namespace net = menos::net;

namespace {

/// The span the calling thread has open (0 = none): the parent of the next
/// span this thread opens.
thread_local std::uint64_t t_open_span = 0;

bool expects_reply(net::MessageType type) {
  switch (type) {
    case net::MessageType::Hello:
    case net::MessageType::Forward:
    case net::MessageType::Backward:
    case net::MessageType::FetchAdapter:
    case net::MessageType::PushAdapter:
    case net::MessageType::Heartbeat:
    case net::MessageType::ResumeSession:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Iteration: return "driver.iteration";
    case SpanKind::DataBatch: return "data.batch";
    case SpanKind::TrainStep: return "core.train_step";
    case SpanKind::Connect: return "core.connect";
    case SpanKind::Disconnect: return "core.disconnect";
    case SpanKind::RoundTrip: return "net.round_trip";
    case SpanKind::ServerResidence: return "net.server_residence";
  }
  return "unknown";
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,session,name,begin_s,end_s\n");
  for (const Span& s : spans()) {
    std::fprintf(f, "%llu,%llu,%u,%s,%.9f,%.9f\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.session,
                 span_name(s.kind), s.begin, s.end);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanKind kind, std::uint32_t session) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.kind = kind;
  span_.session = session;
  span_.id = tracer.next_id();
  span_.parent = t_open_span;
  saved_parent_ = t_open_span;
  t_open_span = span_.id;
  span_.begin = tracer.now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Tracer& tracer = Tracer::instance();
  span_.end = tracer.now();
  t_open_span = saved_parent_;
  tracer.record(span_);
}

struct BenchAcceptor::Link {
  std::uint32_t session = 0;
  /// The client's open round-trip span, read by the server end as the
  /// parent of its residence span.
  std::atomic<std::uint64_t> open_round_trip{0};
};

namespace {

/// Client end: a round-trip span from each request to its reply, frame
/// counts, and uplink bytes. Used from one driver thread only.
class ClientEnd final : public net::Connection {
 public:
  ClientEnd(std::unique_ptr<net::Connection> inner,
            std::shared_ptr<BenchAcceptor::Link> link)
      : inner_(std::move(inner)), link_(std::move(link)) {}

  bool send(const net::Message& message) override {
    Tracer& tracer = Tracer::instance();
    if (!tracer.enabled()) return inner_->send(message);
    if (expects_reply(message.type)) {
      open_ = Span{};
      open_->kind = SpanKind::RoundTrip;
      open_->session = link_->session;
      open_->id = tracer.next_id();
      open_->parent = t_open_span;
      link_->open_round_trip.store(open_->id);
      open_->begin = tracer.now();
    }
    const std::uint64_t before = inner_->bytes_sent();
    const bool ok = inner_->send(message);
    tracer.frames.fetch_add(1);
    tracer.bytes_up.fetch_add(inner_->bytes_sent() - before);
    return ok;
  }

  std::optional<net::Message> receive() override {
    std::optional<net::Message> message = inner_->receive();
    Tracer& tracer = Tracer::instance();
    if (message && tracer.enabled()) tracer.frames.fetch_add(1);
    if (message && open_) {
      open_->end = tracer.now();
      tracer.record(*open_);
      open_.reset();
    }
    return message;
  }

  void set_receive_timeout(double seconds) override {
    inner_->set_receive_timeout(seconds);
  }
  void close() override { inner_->close(); }
  std::uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  net::RecvStatus try_receive(net::Message* out) override {
    return inner_->try_receive(out);
  }
  void set_ready_hook(std::function<void()> hook) override {
    inner_->set_ready_hook(std::move(hook));
  }
  int poll_fd() const override { return inner_->poll_fd(); }

 private:
  std::unique_ptr<net::Connection> inner_;
  std::shared_ptr<BenchAcceptor::Link> link_;
  std::optional<Span> open_;
};

/// Server end: a residence span from each request frame the server takes
/// off the link to the reply it sends, and downlink bytes. The serving
/// core may touch one connection from several threads (the router reads
/// the Hello, a session strand the rest), so the open span is locked.
class ServerEnd final : public net::Connection {
 public:
  ServerEnd(std::unique_ptr<net::Connection> inner,
            std::shared_ptr<BenchAcceptor::Link> link)
      : inner_(std::move(inner)), link_(std::move(link)) {}

  bool send(const net::Message& message) override {
    Tracer& tracer = Tracer::instance();
    const std::uint64_t before = inner_->bytes_sent();
    // The span ends before the frame leaves: once the client has the
    // reply, its next request may race this bookkeeping.
    close_residence(tracer);
    const bool ok = inner_->send(message);
    if (tracer.enabled()) {
      tracer.bytes_down.fetch_add(inner_->bytes_sent() - before);
    }
    return ok;
  }

  std::optional<net::Message> receive() override {
    std::optional<net::Message> message = inner_->receive();
    if (message) open_residence(message->type);
    return message;
  }

  net::RecvStatus try_receive(net::Message* out) override {
    const net::RecvStatus status = inner_->try_receive(out);
    if (status == net::RecvStatus::Frame) open_residence(out->type);
    return status;
  }

  void set_receive_timeout(double seconds) override {
    inner_->set_receive_timeout(seconds);
  }
  void close() override { inner_->close(); }
  std::uint64_t bytes_sent() const override { return inner_->bytes_sent(); }
  void set_ready_hook(std::function<void()> hook) override {
    inner_->set_ready_hook(std::move(hook));
  }
  int poll_fd() const override { return inner_->poll_fd(); }

 private:
  void open_residence(net::MessageType type) {
    Tracer& tracer = Tracer::instance();
    if (!tracer.enabled() || !expects_reply(type)) return;
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = Span{};
    open_->kind = SpanKind::ServerResidence;
    open_->session = link_->session;
    open_->id = tracer.next_id();
    open_->parent = link_->open_round_trip.load();
    open_->begin = tracer.now();
  }

  void close_residence(Tracer& tracer) {
    std::optional<Span> done;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done.swap(open_);
    }
    if (!done) return;
    done->end = tracer.now();
    tracer.record(*done);
  }

  std::unique_ptr<net::Connection> inner_;
  std::shared_ptr<BenchAcceptor::Link> link_;
  std::mutex mutex_;
  std::optional<Span> open_;  // guarded by mutex_
};

}  // namespace

std::unique_ptr<net::Connection> BenchAcceptor::connect(
    std::uint32_t session) {
  if (!decorate_) return inner_.connect();
  auto link = std::make_shared<Link>();
  link->session = session;
  std::unique_ptr<net::Connection> client;
  {
    // Held across the inner connect so pending_ stays in the order the
    // server ends enter the inner accept queue.
    std::lock_guard<std::mutex> lock(mutex_);
    client = inner_.connect();
    pending_.push_back(link);
  }
  return std::make_unique<ClientEnd>(std::move(client), std::move(link));
}

std::unique_ptr<net::Connection> BenchAcceptor::accept() {
  std::unique_ptr<net::Connection> server = inner_.accept();
  if (!decorate_ || server == nullptr) return server;
  std::shared_ptr<Link> link;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    link = pending_.front();
    pending_.pop_front();
  }
  return std::make_unique<ServerEnd>(std::move(server), std::move(link));
}

}  // namespace perfbench
