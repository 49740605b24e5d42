// Fixed-size thread pool shared by every parallel phase: RR-set sampling
// shards, index merges and builds, the SamplingView build and the
// Monte-Carlo spread estimator.
//
// Work reaches the pool in one way: as the tasks of a TaskGroup, which
// ParallelFor also uses for its helpers. The calling thread is one of
// the pool's threads. ThreadPool(n) starts n − 1 workers, and every join
// — TaskGroup::Wait, ParallelFor — runs not-yet-started work of its own
// on the caller instead of sleeping until a worker gets to it. So
// ThreadPool(1) starts no worker, and a group's tasks run on the caller
// that joins it. On a host whose scheduler does not spread threads
// across CPUs (docs/performance.md, "Engine-owned thread pool"), a
// fan-out therefore starts at least one task at once, on a CPU that is
// already running.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/macros.h"

namespace opim {

class TaskGroup;

/// Lifetime counters for a ThreadPool. `queue_wait_us` / `idle_wait_us` are
/// only maintained when the build compiles telemetry in
/// (OPIM_TELEMETRY_ENABLED); `tasks_run` is always exact.
struct ThreadPoolStats {
  /// Queued tasks dequeued, by a worker or by a joining caller: TaskGroup
  /// tasks, ParallelFor's helpers among them (the caller's own share of a
  /// ParallelFor is not a task).
  uint64_t tasks_run = 0;
  /// Total microseconds tasks spent queued before a worker or a joining
  /// caller picked them up.
  uint64_t queue_wait_us = 0;
  /// Total microseconds workers spent blocked waiting for work. A
  /// caller blocked in a join is not counted.
  uint64_t idle_wait_us = 0;
};

/// Fixed-size pool executing std::function<void()> tasks on
/// num_threads() − 1 workers plus the thread that joins them. Tasks are
/// submitted and joined through a TaskGroup (or ParallelFor), which also
/// captures their failures; the pool itself only queues and runs them.
/// Destruction runs any task still queued, then stops the workers.
class ThreadPool {
 public:
  /// A pool of `num_threads` (>= 1) threads: starts num_threads − 1
  /// workers, the caller of each join being the last.
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  OPIM_DISALLOW_COPY(ThreadPool);

  /// Number of threads, the caller included: the worker count plus one.
  unsigned num_threads() const { return num_threads_; }

  /// A reasonable default: hardware concurrency, at least 1.
  static unsigned DefaultThreadCount();

  /// Canonical "0 means auto" thread-count resolution shared by the
  /// engine, the spread estimator and the CLI: 0 -> DefaultThreadCount(),
  /// anything else is taken literally.
  static unsigned ResolveThreadCount(unsigned requested);

  /// Runs `fn(i)` for i in [0, n) on the caller and up to num_threads() − 1
  /// helper tasks, and returns once every item is done. `fn` must be safe
  /// to invoke concurrently for distinct i. The helpers are a TaskGroup,
  /// so only they are joined: it may run inside a pool task or next to
  /// unrelated queued work, and a helper no worker started is run by the
  /// join, claiming nothing. An item's exception is rethrown here once
  /// the claimed items finish; unclaimed items are skipped.
  void ParallelFor(uint64_t n, const std::function<void(uint64_t)>& fn);

  /// Snapshot of lifetime counters (consistent under the pool mutex).
  ThreadPoolStats Stats() const;

  /// Observer invoked from the executing thread (a worker or a joining
  /// caller) after each executed task with the task's wall-clock
  /// interval.
  using TaskSpanHook = void (*)(std::chrono::steady_clock::time_point begin,
                                std::chrono::steady_clock::time_point end);

  /// Installs (or, with nullptr, removes) the process-wide task-span hook.
  /// support/ must not depend on obs/, so the trace recorder registers
  /// itself through this raw function pointer. The hook must be
  /// thread-safe and observe-only; it is only invoked in builds compiled
  /// with OPIM_TELEMETRY_ENABLED.
  static void SetTaskSpanHook(TaskSpanHook hook);

 private:
  friend class TaskGroup;

  struct QueuedTask {
    std::function<void()> fn;
    const TaskGroup* owner = nullptr;
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
    std::chrono::steady_clock::time_point enqueued;
#endif
  };

  void Enqueue(std::function<void()> fn, const TaskGroup* owner);

  /// Moves the oldest queued task of `owner` (of any owner when null)
  /// into `*task` and counts it. Returns false when none is queued.
  /// Requires mu_ held.
  bool TakeQueued(const TaskGroup* owner, QueuedTask* task);

  /// Runs a dequeued task on the calling thread. The task is a TaskGroup
  /// wrapper, which catches its own exception.
  void Execute(QueuedTask* task);

  /// Runs `owner`'s queued tasks (every queued task when null) on the
  /// calling thread until none is left.
  void RunQueued(const TaskGroup* owner);

  void WorkerLoop();

  unsigned num_threads_;
  std::vector<std::thread> workers_;
  std::deque<QueuedTask> tasks_;
  mutable std::mutex mu_;
  std::condition_variable task_ready_;
  bool shutting_down_ = false;
  ThreadPoolStats stats_;
};

/// A set of tasks on a pool, joined together: each submission is wrapped
/// so the group keeps its own pending count and captures its own first
/// exception, and a join sees only the group's tasks, never another
/// group's. Several groups may share a pool: the pipelined engine
/// overlaps a group of speculative sampling shards with selection work
/// and joins only the shards at the merge point. Wait() runs the group's
/// not-yet-started tasks on the caller, in submit order, then waits for
/// the ones a worker started.
///
/// The group must outlive its tasks; Wait() — or destruction, which joins
/// the same way and discards any unconsumed exception — must complete
/// before the pool is destroyed. Destroying a group whose tasks are still
/// queued is safe: the destructor runs them.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup();

  OPIM_DISALLOW_COPY(TaskGroup);

  /// Enqueues a task on the pool, tracked by this group.
  void Submit(std::function<void()> task);

  /// Runs the group's queued tasks on the calling thread, then blocks
  /// until every group task a worker started has completed; rethrows the
  /// group's first exception since the last Wait(). The group stays
  /// reusable.
  void Wait();

 private:
  /// Runs queued group tasks on the caller, then waits for the rest.
  void Join();

  ThreadPool* pool_;
  std::mutex mu_;
  std::condition_variable done_;
  uint64_t pending_ = 0;
  /// First exception thrown by a group task since the last Wait();
  /// guarded by mu_.
  std::exception_ptr failure_;
};

}  // namespace opim
