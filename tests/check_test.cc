// menos::check self-tests (docs/ANALYSIS.md "Concurrency checking").
//
// Two halves, mirroring src/check/:
//
//   * lock-order detection: a deliberately re-introduced ABBA inversion and
//     a rank-discipline violation must each be reported — with both
//     hold-stacks for the cycle — and exactly once per closing edge;
//   * schedule exploration: a deliberately re-introduced order bug in a
//     TaskPool scenario must be found by check::explore() and reproduced
//     from the seed it prints, and the Strand/offload/serving/fault
//     scenarios must survive >= 1000 explored schedules with zero reports.
//
// Test order in this file matters: the lock-order unit tests reset the
// global lock graph (ScopedLockReportCapture), so the regression sweep over
// observed production edges runs LAST, after the serving scenarios have
// rebuilt the graph.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/lock_order.h"
#include "check/schedule.h"
#include "core/client.h"
#include "core/server.h"
#include "data/dataset.h"
#include "mem/offload_engine.h"
#include "net/faulty.h"
#include "net/transport.h"
#include "util/check.h"
#include "util/executor.h"
#include "util/mutex.h"
#include "util/queue.h"

namespace menos {
namespace {

/// Schedules explored across every test in this binary; the last test
/// asserts the acceptance floor (>= 1000 under the default seed counts).
std::atomic<long> g_explored{0};

}  // namespace

// ---------------------------------------------------------------------------
// Lock-order detection (compiled out when the detector is off).
// ---------------------------------------------------------------------------
#ifdef MENOS_DEADLOCK_DETECT

TEST(LockOrder, AbbaInversionReportedOnceWithBothHoldStacks) {
  check::ScopedLockReportCapture capture;
  util::Mutex a("test.abba.a");
  util::Mutex b("test.abba.b");

  {
    util::MutexLock la(a);
    util::MutexLock lb(b);
  }
  EXPECT_TRUE(capture.reports().empty()) << "consistent order reported";

  {
    util::MutexLock lb(b);
    util::MutexLock la(a);  // the re-introduced inversion
  }
  ASSERT_EQ(capture.reports().size(), 1u);
  const check::LockOrderReport& r = capture.reports()[0];
  EXPECT_EQ(r.kind, "cycle");
  EXPECT_NE(r.summary.find("test.abba.a"), std::string::npos);
  EXPECT_NE(r.summary.find("test.abba.b"), std::string::npos);
  // Both directions' acquisition contexts: where a -> b was first recorded,
  // and the b -> a acquisition that closed the cycle.
  EXPECT_NE(r.first_stack.find("held [test.abba.a] acquiring test.abba.b"),
            std::string::npos)
      << r.first_stack;
  EXPECT_NE(r.second_stack.find("held [test.abba.b] acquiring test.abba.a"),
            std::string::npos)
      << r.second_stack;

  // The same inversion again is deduplicated: one report per closing edge.
  {
    util::MutexLock lb(b);
    util::MutexLock la(a);
  }
  EXPECT_EQ(capture.reports().size(), 1u);
}

TEST(LockOrder, RankViolationReportedOnFirstExecution) {
  check::ScopedLockReportCapture capture;
  util::Mutex low("test.rank.low", 30);
  util::Mutex high("test.rank.high", 40);

  // Descending ranks are reported immediately — no need to ever run the
  // reverse order (this is what makes ranks stronger than the graph).
  util::MutexLock lh(high);
  util::MutexLock ll(low);
  ASSERT_EQ(capture.reports().size(), 1u);
  EXPECT_EQ(capture.reports()[0].kind, "rank");
  EXPECT_NE(capture.reports()[0].summary.find("test.rank.low"),
            std::string::npos);
  EXPECT_NE(capture.reports()[0].summary.find("test.rank.high"),
            std::string::npos);
}

TEST(LockOrder, AscendingAndEqualRanksAreClean) {
  check::ScopedLockReportCapture capture;
  util::Mutex low("test.clean.low", 30);
  util::Mutex mid_a("test.clean.mid_a", 35);
  util::Mutex mid_b("test.clean.mid_b", 35);
  util::Mutex unranked("test.clean.unranked");

  util::MutexLock l1(low);
  util::MutexLock l2(mid_a);
  util::MutexLock l3(mid_b);  // equal ranks may nest (distinct classes)
  util::MutexLock l4(unranked);
  EXPECT_TRUE(capture.reports().empty());
}

TEST(LockOrder, TryLockRecordsNoOrderEdge) {
  check::ScopedLockReportCapture capture;
  util::Mutex a("test.try.a");
  util::Mutex b("test.try.b");

  {
    util::MutexLock la(a);
    const bool acquired = b.try_lock();  // held, but records no a -> b edge
    EXPECT_TRUE(acquired);
    if (acquired) b.unlock();
  }
  {
    util::MutexLock lb(b);
    util::MutexLock la(a);  // would close a cycle if try_lock made an edge
  }
  EXPECT_TRUE(capture.reports().empty());
  EXPECT_FALSE(check::lock_order_edge_seen("test.try.a", "test.try.b"));
  EXPECT_TRUE(check::lock_order_edge_seen("test.try.b", "test.try.a"));
}

TEST(LockOrder, RecursiveAcquisitionReported) {
  check::ScopedLockReportCapture capture;
  // Exercised through the note_* API: actually calling util::Mutex::lock()
  // twice would deadlock for real on the underlying std::mutex.
  const check::LockClass* cls = check::intern_lock_class("test.recursive");
  int instance = 0;
  check::note_acquire(cls, &instance);
  check::note_acquire(cls, &instance);
  ASSERT_EQ(capture.reports().size(), 1u);
  EXPECT_EQ(capture.reports()[0].kind, "recursive");
  check::note_release(cls, &instance);
  check::note_release(cls, &instance);
}

TEST(LockOrder, ForeignReleaseReported) {
  check::ScopedLockReportCapture capture;
  const check::LockClass* cls = check::intern_lock_class("test.foreign");
  int instance = 0;
  check::note_release(cls, &instance);  // never acquired on this thread
  ASSERT_EQ(capture.reports().size(), 1u);
  EXPECT_NE(capture.reports()[0].summary.find("never acquired"),
            std::string::npos);
}

TEST(LockOrder, RankConflictOnReinternReported) {
  check::ScopedLockReportCapture capture;
  check::intern_lock_class("test.conflict", 5);
  const check::LockClass* again = check::intern_lock_class("test.conflict", 7);
  EXPECT_EQ(check::lock_class_rank(again), 5);  // first nonzero rank wins
  ASSERT_EQ(capture.reports().size(), 1u);
  EXPECT_EQ(capture.reports()[0].kind, "rank-conflict");
}

TEST(LockOrder, EdgeIntrospectionSeesRecordedOrder) {
  check::ScopedLockReportCapture capture;
  util::Mutex x("test.edge.x");
  util::Mutex y("test.edge.y");
  {
    util::MutexLock lx(x);
    util::MutexLock ly(y);
  }
  EXPECT_TRUE(check::lock_order_edge_seen("test.edge.x", "test.edge.y"));
  EXPECT_FALSE(check::lock_order_edge_seen("test.edge.y", "test.edge.x"));
  bool found = false;
  for (const auto& [holder, acquired] : check::lock_order_edges()) {
    found = found || (holder == "test.edge.x" && acquired == "test.edge.y");
  }
  EXPECT_TRUE(found);
}

#endif  // MENOS_DEADLOCK_DETECT

// ---------------------------------------------------------------------------
// Schedule exploration: self-test scenarios.
// ---------------------------------------------------------------------------
namespace {

/// The re-introduced order bug: on a width-1 pool the scenario "works"
/// under FIFO (A posted before B, so A runs first) but breaks under any
/// schedule that picks B from the ready set first — exactly the class of
/// latent bug the exploration driver exists to surface.
void order_bug_scenario() {
  util::TaskPool pool(1);
  std::atomic<int> seq{0};
  std::atomic<int> a_at{-1};
  std::atomic<int> b_at{-1};
  util::WaitGroup wg;
  wg.add(3);
  pool.post([&] {
    // Posted from inside a task so A and B are both queued — and therefore
    // both in the hook's ready set — when the worker picks next.
    pool.post([&] {
      a_at.store(seq.fetch_add(1));
      wg.done();
    });
    pool.post([&] {
      b_at.store(seq.fetch_add(1));
      wg.done();
    });
    wg.done();
  });
  wg.wait();
  pool.stop_and_join();
  if (b_at.load() < a_at.load()) {
    throw std::runtime_error("B ran before A");
  }
}

/// Two strands sharing a pool: per-strand FIFO, mutual exclusion within a
/// strand, and a nested post (re-posting onto your own strand from inside
/// one of its tasks) must all hold under every explored schedule.
void strand_scenario() {
  constexpr int kN = 10;
  util::TaskPool pool(3);
  std::atomic<int> in1{0};
  std::atomic<int> in2{0};
  std::atomic<bool> overlap{false};
  std::vector<int> order1;
  std::vector<int> order2;
  {
    util::Strand s1(pool);
    util::Strand s2(pool);
    util::WaitGroup wg;
    wg.add(2 * kN);
    for (int i = 0; i < kN; ++i) {
      s1.post([&, i] {
        if (in1.fetch_add(1) != 0) overlap.store(true);
        order1.push_back(i);  // serialized by the strand, no lock needed
        if (i == 3) {
          wg.add(1);  // before done() below, so wait() cannot pass early
          s1.post([&] {
            if (in1.fetch_add(1) != 0) overlap.store(true);
            order1.push_back(100);
            in1.fetch_sub(1);
            wg.done();
          });
        }
        in1.fetch_sub(1);
        wg.done();
      });
      s2.post([&, i] {
        if (in2.fetch_add(1) != 0) overlap.store(true);
        order2.push_back(i);
        in2.fetch_sub(1);
        wg.done();
      });
    }
    wg.wait();
  }
  pool.stop_and_join();

  if (overlap.load()) throw std::runtime_error("strand tasks overlapped");
  std::vector<int> base1;
  int pos_3 = -1;
  int pos_100 = -1;
  for (std::size_t i = 0; i < order1.size(); ++i) {
    if (order1[i] == 100) {
      pos_100 = static_cast<int>(i);
    } else {
      if (order1[i] == 3) pos_3 = static_cast<int>(i);
      base1.push_back(order1[i]);
    }
  }
  std::vector<int> expected;
  for (int i = 0; i < kN; ++i) expected.push_back(i);
  if (base1 != expected) throw std::runtime_error("strand 1 broke FIFO");
  if (order2 != expected) throw std::runtime_error("strand 2 broke FIFO");
  if (pos_100 < pos_3) throw std::runtime_error("nested post ran early");
}

/// Posts racing onto one strand from two producer threads: each producer's
/// tasks must still run in its own post order, serialized, none lost.
void strand_cross_thread_scenario() {
  constexpr int kPer = 8;
  util::TaskPool pool(2);
  std::atomic<int> in{0};
  std::atomic<bool> overlap{false};
  std::vector<std::pair<int, int>> order;
  {
    util::Strand strand(pool);
    util::WaitGroup wg;
    wg.add(2 * kPer);
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPer; ++i) {
          strand.post([&, p, i] {
            if (in.fetch_add(1) != 0) overlap.store(true);
            order.emplace_back(p, i);
            in.fetch_sub(1);
            wg.done();
          });
        }
      });
    }
    for (std::thread& t : producers) t.join();
    wg.wait();
  }
  pool.stop_and_join();

  if (overlap.load()) throw std::runtime_error("strand tasks overlapped");
  int last[2] = {-1, -1};
  for (const auto& [p, i] : order) {
    if (i <= last[p]) throw std::runtime_error("per-producer order broke");
    last[p] = i;
  }
  if (last[0] != kPer - 1 || last[1] != kPer - 1) {
    throw std::runtime_error("strand lost a task");
  }
}

}  // namespace

TEST(ScheduleExplore, TaskPoolIsFifoWithoutAHook) {
  // The order-bug scenario is well-behaved under the default FIFO dequeue;
  // only a hooked schedule can break it.
  for (int i = 0; i < 20; ++i) order_bug_scenario();
}

TEST(ScheduleExplore, FindsOrderBugAndReproducesItFromTheSeed) {
  const check::ExploreResult result = check::explore(order_bug_scenario);
  g_explored.fetch_add(result.schedules);
  ASSERT_FALSE(result.ok) << "exploration missed the planted order bug";
  EXPECT_FALSE(result.failing_mode.empty());
  EXPECT_EQ(result.what, "B ran before A");

  // The contract printed on failure: mode + seed replay the exact schedule.
  const std::string replayed =
      check::replay(order_bug_scenario, result.failing_seed,
                    result.failing_mode);
  EXPECT_EQ(replayed, result.what);
  // And the replay is deterministic, not merely likely to fail.
  EXPECT_EQ(check::replay(order_bug_scenario, result.failing_seed,
                          result.failing_mode),
            replayed);
}

TEST(ScheduleExplore, StrandOrderingHoldsAcrossSeeds) {
  check::ExploreOptions options;
  options.seeds = 250;
  const check::ExploreResult result = check::explore(strand_scenario, options);
  g_explored.fetch_add(result.schedules);
  EXPECT_TRUE(result.ok) << result.failing_mode << " seed "
                         << result.failing_seed << ": " << result.what;
}

TEST(ScheduleExplore, CrossThreadStrandPostsHoldAcrossSeeds) {
  check::ExploreOptions options;
  options.seeds = 250;
  options.base_seed = 7000;
  const check::ExploreResult result =
      check::explore(strand_cross_thread_scenario, options);
  g_explored.fetch_add(result.schedules);
  EXPECT_TRUE(result.ok) << result.failing_mode << " seed "
                         << result.failing_seed << ": " << result.what;
}

// ---------------------------------------------------------------------------
// Schedule exploration: offload residency on the serving executor.
// ---------------------------------------------------------------------------
namespace {

/// A scheduler stand-in for the offload engine: a byte pool whose mutex is
/// held across reclaim (scheduler -> engine, the only permitted nesting),
/// plus a log of every move per unit.
struct OffloadWorld {
  static constexpr std::size_t kUnit = 64;
  static constexpr std::size_t kCapacity = 96;  // both units cannot fit

  mem::OffloadEngine* engine = nullptr;
  util::Mutex pool_mutex{"test.offload.pool", 32};
  std::size_t free_bytes MENOS_GUARDED_BY(pool_mutex) = kCapacity - 2 * kUnit;
  util::Mutex log_mutex{"test.offload.log", 86};
  std::vector<std::string> moves[2] MENOS_GUARDED_BY(log_mutex);

  mem::UnitCallbacks callbacks_for(int id) {
    mem::UnitCallbacks cb;
    cb.move = [this, id](bool to_device) {
      util::MutexLock lock(log_mutex);
      moves[id].push_back(to_device ? "in" : "out");
    };
    cb.charge = [this, id] {
      util::MutexLock lock(pool_mutex);
      if (free_bytes < kUnit) {
        free_bytes += engine->evict_idle(kUnit - free_bytes, id);
      }
      if (free_bytes < kUnit) {
        throw OutOfMemory("offload world exhausted", kUnit, free_bytes);
      }
      free_bytes -= kUnit;
    };
    return cb;
  }

  /// An eviction pass as the scheduler runs it: under the pool mutex,
  /// crediting what it freed.
  void reclaim(std::size_t bytes) {
    util::MutexLock lock(pool_mutex);
    free_bytes += engine->evict_idle(bytes);
  }
};

/// A prefetch, a pinned ensure_resident and an eviction pass race on a
/// two-worker executor over a unit that starts on the host, with a second
/// idle unit as eviction fodder. Whatever the schedule: the pinned unit is
/// resident while pinned, each unit's moves alternate (no double move-in),
/// the stats match the moves, and the byte pool balances.
void offload_race_scenario() {
  util::TaskPool pool(2);
  OffloadWorld world;
  mem::OffloadEngine engine(pool);
  world.engine = &engine;
  engine.register_unit(0, OffloadWorld::kUnit, world.callbacks_for(0));
  engine.register_unit(1, OffloadWorld::kUnit, world.callbacks_for(1));
  world.reclaim(OffloadWorld::kUnit);  // unit 0 (older stamp) goes out
  if (engine.residency(0) != mem::Residency::OnHost) {
    throw std::runtime_error("setup: unit 0 not evicted");
  }

  util::Mutex error_mutex{"test.offload.error", 88};
  std::string error;
  auto fail = [&](const std::string& what) {
    util::MutexLock lock(error_mutex);
    if (error.empty()) error = what;
  };
  util::WaitGroup wg;
  wg.add(3);
  pool.post([&] {
    engine.prefetch(0);  // posts the prefetch task onto the same pool
    wg.done();
  });
  pool.post([&] {
    try {
      engine.begin_use(0);
      engine.ensure_resident(0);
      if (!engine.resident(0)) fail("pinned unit not resident");
      engine.end_use(0);
    } catch (const std::exception& e) {
      fail(std::string("ensure_resident threw: ") + e.what());
    }
    wg.done();
  });
  pool.post([&] {
    world.reclaim(OffloadWorld::kUnit);
    wg.done();
  });
  wg.wait();
  pool.stop_and_join();  // runs the prefetch task if it is still queued

  if (!error.empty()) throw std::runtime_error(error);
  const mem::OffloadStats stats = engine.stats();
  std::uint64_t ins = 0;
  std::uint64_t outs = 0;
  {
    util::MutexLock lock(world.log_mutex);
    for (const std::vector<std::string>& log : world.moves) {
      for (std::size_t i = 0; i < log.size(); ++i) {
        // Registered on the device, so moves go out, in, out, ...
        if (log[i] != (i % 2 == 0 ? "out" : "in")) {
          throw std::runtime_error("moves of a unit did not alternate");
        }
        (log[i] == "in" ? ins : outs) += 1;
      }
    }
  }
  if (stats.swap_ins != ins || stats.swap_outs != outs) {
    throw std::runtime_error("offload stats disagree with the moves");
  }
  if (stats.prefetches > 1) throw std::runtime_error("prefetched twice");
  util::MutexLock lock(world.pool_mutex);
  if (world.free_bytes + engine.resident_bytes() != OffloadWorld::kCapacity) {
    throw std::runtime_error("byte pool does not balance");
  }
}

}  // namespace

TEST(ScheduleExplore, OffloadPrefetchRacesHoldAcrossSeeds) {
#ifdef MENOS_DEADLOCK_DETECT
  const std::uint64_t reports_before = check::lock_report_count();
#endif
  check::ExploreOptions options;
  options.seeds = 500;  // x2 schedule families = 1000 schedules
  options.base_seed = 9000;
  const check::ExploreResult result =
      check::explore(offload_race_scenario, options);
  g_explored.fetch_add(result.schedules);
  EXPECT_TRUE(result.ok) << result.failing_mode << " seed "
                         << result.failing_seed << ": " << result.what;
#ifdef MENOS_DEADLOCK_DETECT
  EXPECT_EQ(check::lock_report_count(), reports_before);
#endif
}

// ---------------------------------------------------------------------------
// Schedule exploration: the event-driven serving core.
// ---------------------------------------------------------------------------
namespace {

nn::TransformerConfig check_model() {
  nn::TransformerConfig c = nn::TransformerConfig::tiny_opt();
  c.dim = 16;
  c.n_heads = 2;
  c.ffn_hidden = 32;
  c.n_layers = 2;
  return c;
}

core::ClientOptions check_options(std::uint64_t adapter_seed) {
  core::ClientOptions options;
  options.finetune.model = check_model();
  options.finetune.batch_size = 2;
  options.finetune.seq_len = 8;
  options.finetune.adapter_seed = adapter_seed;
  options.base_seed = 42;
  return options;
}

data::DataLoader check_loader(std::uint64_t seed) {
  data::CharTokenizer tok;
  return data::DataLoader(
      tok.encode(data::make_shakespeare_like(2000, 3).text), 2, 8, seed);
}

/// Server on a 2-worker executor. Member order matters: the acceptor must
/// outlive the server's accept loop, and the destructor stops the server
/// even when a failing scenario unwinds with an exception (the exploration
/// harness found the pure-virtual-call crash of the naive ordering).
struct CheckRig {
  explicit CheckRig(double lease_seconds = 0.0) : devices(1, 256u << 20) {
    config.base_seed = 42;
    config.executor_threads = 2;
    config.lease_seconds = lease_seconds;
    server = std::make_unique<core::Server>(config, devices, check_model());
    server->start(acceptor);
  }
  ~CheckRig() { server->stop(); }

  gpusim::DeviceManager devices;
  core::ServerConfig config;
  net::InprocAcceptor acceptor;
  std::unique_ptr<core::Server> server;
};

/// One client fine-tuning for two steps against a 2-worker executor.
/// Returns the loss trajectory — a pure function of the seeds, so any
/// schedule-dependent divergence is an ordering bug in the serving core.
std::vector<double> serve_once() {
  CheckRig rig;
  std::vector<double> losses;
  gpusim::DeviceManager client_devices(1, 256u << 20);
  core::Client client(check_options(7), rig.acceptor.connect(),
                      client_devices.gpu(0));
  client.connect();
  data::DataLoader loader = check_loader(5);
  for (int s = 0; s < 2; ++s) {
    losses.push_back(client.train_step(loader.next()).loss);
  }
  client.disconnect();
  return losses;
}

/// The PR-4 recovery path under exploration: a seeded fault plan drops and
/// corrupts frames while the executor schedule is being permuted. Leases
/// on, as in tests/failure_test.cc: a fault-dropped connection must park
/// the session for ResumeSession, not destroy it mid-flight.
std::vector<double> faulty_serve_once() {
  CheckRig rig(/*lease_seconds=*/30.0);
  std::vector<double> losses;
  net::Dialer dialer = [&rig] { return rig.acceptor.connect(); };
  net::FaultPlan plan;
  plan.seed = 0xc4ec4;
  plan.drop_send_prob = 0.05;
  plan.drop_receive_prob = 0.05;
  plan.corrupt_receive_prob = 0.03;
  plan.skip_frames = 4;
  auto injector = std::make_shared<net::FaultInjector>(plan);
  dialer = net::faulty_dialer(std::move(dialer), injector);

  core::ClientOptions options = check_options(9);
  options.retry.time_scale = 0.0;
  gpusim::DeviceManager client_devices(1, 256u << 20);
  core::Client client(options, dialer(), client_devices.gpu(0), dialer);
  client.connect();
  data::DataLoader loader = check_loader(6);
  for (int s = 0; s < 3; ++s) {
    losses.push_back(client.train_step(loader.next()).loss);
  }
  client.disconnect();
  return losses;
}

void expect_same_losses(const std::vector<double>& got,
                        const std::vector<double>& reference) {
  // Bit-identical, not approximately equal: determinism under load is the
  // serving core's contract (tests/concurrency_test.cc).
  if (got != reference) {
    throw std::runtime_error("schedule leaked into the loss trajectory");
  }
}

}  // namespace

TEST(ScheduleExplore, ServingCoreIsScheduleInvariant) {
  const std::vector<double> reference = serve_once();  // FIFO baseline
  ASSERT_EQ(reference.size(), 2u);
  check::ExploreOptions options;
  options.seeds = 10;
  options.base_seed = 100;
  const check::ExploreResult result = check::explore(
      [&reference] { expect_same_losses(serve_once(), reference); }, options);
  g_explored.fetch_add(result.schedules);
  EXPECT_TRUE(result.ok) << result.failing_mode << " seed "
                         << result.failing_seed << ": " << result.what;
}

TEST(ScheduleExplore, FaultRecoveryIsScheduleInvariant) {
  const std::vector<double> reference = faulty_serve_once();
  ASSERT_EQ(reference.size(), 3u);
  check::ExploreOptions options;
  options.seeds = 4;
  options.base_seed = 200;
  const check::ExploreResult result = check::explore(
      [&reference] { expect_same_losses(faulty_serve_once(), reference); },
      options);
  g_explored.fetch_add(result.schedules);
  EXPECT_TRUE(result.ok) << result.failing_mode << " seed "
                         << result.failing_seed << ": " << result.what;
}

// ---------------------------------------------------------------------------
// Regression: the tree's observed lock orderings are clean.
// ---------------------------------------------------------------------------
#ifdef MENOS_DEADLOCK_DETECT

// Runs AFTER the serving scenarios rebuilt the lock-order graph (the unit
// tests at the top reset it). Documents the verified-clean ordering of the
// production classes: every observed cross-class edge between two ranked
// classes goes from a lower rank to an equal-or-higher one, and none of
// this binary's thousands of schedules produced a report.
TEST(LockOrderRegression, ObservedProductionEdgesRespectRankBands) {
  const auto edges = check::lock_order_edges();
  ASSERT_FALSE(edges.empty());
  for (const auto& [holder, acquired] : edges) {
    const int h =
        check::lock_class_rank(check::intern_lock_class(holder.c_str()));
    const int a =
        check::lock_class_rank(check::intern_lock_class(acquired.c_str()));
    if (h != 0 && a != 0) {
      EXPECT_LE(h, a) << "inverted edge " << holder << " -> " << acquired;
    }
  }
  // Spot-check a known nesting from the accept path (docs/ANALYSIS.md):
  // the session table is held while the live-connection map is updated,
  // never the reverse.
  EXPECT_TRUE(check::lock_order_edge_seen("core.server.sessions",
                                          "core.server.live"));
  EXPECT_FALSE(check::lock_order_edge_seen("core.server.live",
                                           "core.server.sessions"));
}

#endif  // MENOS_DEADLOCK_DETECT

TEST(ScheduleExplore, AcceptanceFloorOfExploredSchedules) {
  const char* env = std::getenv("MENOS_CHECK_SEEDS");
  if (env != nullptr && std::strtol(env, nullptr, 10) < 250) {
    GTEST_SKIP() << "MENOS_CHECK_SEEDS narrows the sweep below the floor";
  }
  EXPECT_GE(g_explored.load(), 1000);
#ifdef MENOS_DEADLOCK_DETECT
  EXPECT_EQ(check::lock_report_count(), 0u);
#endif
}

}  // namespace menos
