#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace opim {

namespace {

/// Process-wide task-span observer (see ThreadPool::SetTaskSpanHook).
std::atomic<ThreadPool::TaskSpanHook> task_span_hook{nullptr};

}  // namespace

void ThreadPool::SetTaskSpanHook(TaskSpanHook hook) {
  task_span_hook.store(hook, std::memory_order_release);
}

#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
namespace {

uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace
#endif

ThreadPool::ThreadPool(unsigned num_threads) : num_threads_(num_threads) {
  OPIM_CHECK_GE(num_threads, 1u);
  // The caller of each join is the last thread.
  workers_.reserve(num_threads - 1);
  for (unsigned i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  RunQueued(nullptr);
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Enqueue(std::function<void()> fn, const TaskGroup* owner) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    OPIM_CHECK_MSG(!shutting_down_, "Submit after shutdown");
    QueuedTask queued;
    queued.fn = std::move(fn);
    queued.owner = owner;
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
    queued.enqueued = std::chrono::steady_clock::now();
#endif
    tasks_.push_back(std::move(queued));
  }
  task_ready_.notify_one();
}

bool ThreadPool::TakeQueued(const TaskGroup* owner, QueuedTask* task) {
  auto it = tasks_.begin();
  if (owner != nullptr) {
    it = std::find_if(tasks_.begin(), tasks_.end(),
                      [owner](const QueuedTask& t) { return t.owner == owner; });
  }
  if (it == tasks_.end()) return false;
  *task = std::move(*it);
  tasks_.erase(it);
  ++stats_.tasks_run;
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
  stats_.queue_wait_us += MicrosSince(task->enqueued);
#endif
  return true;
}

void ThreadPool::Execute(QueuedTask* task) {
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
  const TaskSpanHook hook = task_span_hook.load(std::memory_order_acquire);
  const auto task_start = hook != nullptr
                              ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
#endif
  task->fn();
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
  if (hook != nullptr) hook(task_start, std::chrono::steady_clock::now());
#endif
}

void ThreadPool::RunQueued(const TaskGroup* owner) {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!TakeQueued(owner, &task)) return;
    }
    Execute(&task);
  }
}

unsigned ThreadPool::DefaultThreadCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned ThreadPool::ResolveThreadCount(unsigned requested) {
  return requested == 0 ? DefaultThreadCount() : requested;
}

void ThreadPool::ParallelFor(uint64_t n,
                             const std::function<void(uint64_t)>& fn) {
  if (n == 0) return;
  std::atomic<uint64_t> next{0};
  auto claim = [&] {
    for (;;) {
      const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        next.store(n, std::memory_order_relaxed);  // skip unclaimed items
        throw;
      }
    }
  };
  // Declared after `next`, so a throwing caller joins the helpers before
  // the counter goes away. Helpers that never started are run by the join
  // and claim nothing.
  TaskGroup group(this);
  const uint64_t helpers = std::min<uint64_t>(n, num_threads()) - 1;
  for (uint64_t h = 0; h < helpers; ++h) group.Submit(claim);
  claim();
  group.Wait();
}

ThreadPoolStats ThreadPool::Stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stats_;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
      const auto idle_start = std::chrono::steady_clock::now();
#endif
      task_ready_.wait(lock,
                       [this] { return shutting_down_ || !tasks_.empty(); });
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
      stats_.idle_wait_us += MicrosSince(idle_start);
#endif
      if (!TakeQueued(nullptr, &task)) {
        if (shutting_down_) return;
        continue;
      }
    }
    Execute(&task);
  }
}

TaskGroup::~TaskGroup() { Join(); }

void TaskGroup::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++pending_;
  }
  pool_->Enqueue(
      [this, task = std::move(task)]() mutable {
        try {
          task();
        } catch (...) {
          std::unique_lock<std::mutex> lock(mu_);
          if (failure_ == nullptr) failure_ = std::current_exception();
        }
        // The group may be destroyed as soon as it counts this task done.
        task = nullptr;
        std::unique_lock<std::mutex> lock(mu_);
        if (--pending_ == 0) done_.notify_all();
      },
      this);
}

void TaskGroup::Join() {
  pool_->RunQueued(this);
  std::unique_lock<std::mutex> lock(mu_);
  done_.wait(lock, [this] { return pending_ == 0; });
}

void TaskGroup::Wait() {
  Join();
  std::unique_lock<std::mutex> lock(mu_);
  if (failure_ != nullptr) {
    std::exception_ptr failure = std::exchange(failure_, nullptr);
    lock.unlock();
    std::rethrow_exception(failure);
  }
}

}  // namespace opim
