#include "util/executor.h"

#include <utility>

#include "check/schedule.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace menos::util {

TaskPool::TaskPool(int width) : width_(width) {
  MENOS_CHECK_MSG(width >= 1, "TaskPool width must be >= 1, got " << width);
  // These workers hold cores for as long as they live; intra-op regions
  // fork only into what is left (ThreadPool core budget).
  ThreadPool::reserve_cores(width_);
  workers_.reserve(static_cast<std::size_t>(width_));
  for (int i = 0; i < width_; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

TaskPool::~TaskPool() { stop_and_join(); }

bool TaskPool::post(std::function<void()> task) {
  if (!task) return false;
  {
    MutexLock lock(mutex_);
    if (stopping_) return false;  // producers are already winding down
    tasks_.push_back(Task{next_task_id_++, std::move(task)});
  }
  cv_.notify_one();
  return true;
}

void TaskPool::stop_and_join() {
  {
    MutexLock lock(mutex_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  ThreadPool::release_cores(width_);
}

void TaskPool::worker_main() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (tasks_.empty() && !stopping_) cv_.wait(mutex_);
      if (tasks_.empty()) return;  // stopping_ && drained
      std::size_t index = 0;
      if (check::SchedulerHook* hook = check::scheduler_hook()) {
        // Schedule exploration: let the installed hook choose which ready
        // task runs. The id buffer is only built when a hook is live, so
        // production runs pay one atomic load here and nothing else.
        std::vector<std::uint64_t> ids;
        ids.reserve(tasks_.size());
        for (const Task& t : tasks_) ids.push_back(t.id);
        index = hook->pick(ids.data(), ids.size());
        if (index >= tasks_.size()) index = 0;  // defensive: bad hook
      }
      task = std::move(tasks_[index].fn);
      tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(index));
    }
    try {
      task();
    } catch (const std::exception& e) {
      MENOS_LOG(Error) << "TaskPool task threw: " << e.what();
    } catch (...) {
      MENOS_LOG(Error) << "TaskPool task threw a non-std exception";
    }
  }
}

// One shared queue guarded by its own mutex; at most one drain task is in
// flight on the pool at a time (`running_`), which is what serializes the
// strand without pinning it to a worker.
struct Strand::Impl : std::enable_shared_from_this<Strand::Impl> {
  explicit Impl(TaskPool& pool) : pool(&pool) {}

  void post(std::function<void()> task) {
    bool schedule = false;
    {
      MutexLock lock(mutex);
      pending.push_back(std::move(task));
      if (!running) {
        running = true;
        schedule = true;
      }
    }
    if (schedule) schedule_drain();
  }

  void schedule_drain() {
    pool->post([self = shared_from_this()] { self->drain(); });
  }

  void drain() {
    // Bounded batch per pool task so one chatty strand cannot starve the
    // others; leftover work is reposted to the back of the pool queue.
    constexpr int kBatch = 16;
    for (int i = 0; i < kBatch; ++i) {
      std::function<void()> task;
      {
        MutexLock lock(mutex);
        if (pending.empty()) {
          running = false;
          return;
        }
        task = std::move(pending.front());
        pending.pop_front();
      }
      try {
        task();
      } catch (const std::exception& e) {
        MENOS_LOG(Error) << "Strand task threw: " << e.what();
      } catch (...) {
        MENOS_LOG(Error) << "Strand task threw a non-std exception";
      }
    }
    bool repost = false;
    {
      MutexLock lock(mutex);
      if (pending.empty()) {
        running = false;
      } else {
        repost = true;  // keep `running` set: we still own the drain
      }
    }
    if (repost) schedule_drain();
  }

  TaskPool* pool;
  Mutex mutex{"util.strand", 68};
  std::deque<std::function<void()>> pending MENOS_GUARDED_BY(mutex);
  bool running MENOS_GUARDED_BY(mutex) = false;
};

Strand::Strand(TaskPool& pool) : impl_(std::make_shared<Impl>(pool)) {}

void Strand::post(std::function<void()> task) {
  impl_->post(std::move(task));
}

}  // namespace menos::util
