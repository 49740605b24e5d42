#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace opim {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    group.Submit([&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.Wait();  // no tasks; must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, MultipleWaitCycles) {
  ThreadPool pool(3);
  TaskGroup group(&pool);
  std::atomic<int> counter{0};
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 20; ++i) {
      group.Submit([&counter] { counter.fetch_add(1); });
    }
    group.Wait();
    EXPECT_EQ(counter.load(), (cycle + 1) * 20);
  }
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  TaskGroup group(&pool);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    group.Submit([&order, i] { order.push_back(i); });
  }
  group.Wait();
  // The joining caller executes in submission order.
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, SingleThreadGroupRunsEverythingOnTheCallerAtWait) {
  // ThreadPool(1) starts no worker: nothing runs before Wait, which runs
  // every task on the caller in submit order and rethrows the first
  // failure only after running the rest.
  ThreadPool pool(1);
  TaskGroup group(&pool);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  bool all_on_caller = true;
  auto task = [&](int i) {
    order.push_back(i);
    all_on_caller &= std::this_thread::get_id() == caller;
  };
  group.Submit([&] { task(0); });
  group.Submit([&] {
    task(1);
    throw std::runtime_error("first");
  });
  group.Submit([&] { task(2); });
  group.Submit([&] {
    task(3);
    throw std::logic_error("second");
  });
  group.Submit([&] { task(4); });
  EXPECT_TRUE(order.empty());
  try {
    group.Wait();
    FAIL() << "Wait() must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(all_on_caller);
  EXPECT_EQ(pool.Stats().tasks_run, 5u);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  const uint64_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](uint64_t i) { hits[i].fetch_add(1); });
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    TaskGroup group(&pool);
    for (int i = 0; i < 50; ++i) {
      group.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): destruction must still let every task finish.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, DefaultThreadCountPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  // 0 = auto: resolves to the hardware default; anything else is literal.
  EXPECT_EQ(ThreadPool::ResolveThreadCount(0),
            ThreadPool::DefaultThreadCount());
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(5), 5u);
}

TEST(ThreadPoolTest, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
}

TEST(ThreadPoolTest, PoolIsReusableAfterFailure) {
  ThreadPool pool(3);
  TaskGroup group(&pool);
  for (int cycle = 0; cycle < 3; ++cycle) {
    group.Submit([] { throw std::logic_error("cycle failure"); });
    EXPECT_THROW(group.Wait(), std::logic_error);
    // The failure must be consumed: the next batch runs normally.
    std::atomic<int> counter{0};
    for (int i = 0; i < 30; ++i) {
      group.Submit([&counter] { counter.fetch_add(1); });
    }
    group.Wait();
    EXPECT_EQ(counter.load(), 30);
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [](uint64_t i) {
                                  if (i == 37) {
                                    throw std::runtime_error("element 37");
                                  }
                                }),
               std::runtime_error);
  // And the pool still works afterwards.
  std::atomic<int> counter{0};
  pool.ParallelFor(50, [&](uint64_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, StatsCountTasksRun) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  EXPECT_EQ(pool.Stats().tasks_run, 0u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 37; ++i) {
    group.Submit([&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(pool.Stats().tasks_run, 37u);
  group.Submit([&counter] { counter.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(pool.Stats().tasks_run, 38u);
}

/// Occupies every worker of `pool` with a task that blocks until
/// Release(), and returns once all of them are running. The blocking
/// tasks are their own group, joined by Release().
class BlockedWorkers {
 public:
  explicit BlockedWorkers(ThreadPool* pool)
      : workers_(pool->num_threads() - 1), started_(workers_), group_(pool) {
    for (unsigned i = 0; i < workers_; ++i) {
      group_.Submit([this] {
        started_.count_down();
        release_.wait();
      });
    }
    started_.wait();
  }
  ~BlockedWorkers() { Release(); }

  /// Unblocks the workers and joins their tasks; idempotent.
  void Release() {
    if (released_) return;
    released_ = true;
    release_.count_down();
    group_.Wait();
  }

 private:
  unsigned workers_;
  std::latch started_;
  std::latch release_{1};
  bool released_ = false;
  TaskGroup group_;
};

TEST(ThreadPoolJoinTest, ParallelForInsideAPoolTaskCompletes) {
  ThreadPool pool(4);
  // One task per thread, each fanning out again: every worker then sits
  // inside a ParallelFor whose helpers can only run on a busy pool.
  constexpr uint64_t kItems = 200;
  std::vector<std::atomic<int>> hits(4 * kItems);
  TaskGroup group(&pool);
  for (uint64_t t = 0; t < 4; ++t) {
    group.Submit([&, t] {
      pool.ParallelFor(kItems, [&](uint64_t i) {
        hits[t * kItems + i].fetch_add(1);
      });
    });
  }
  group.Wait();
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolJoinTest, JoinsCompleteOnTheCallerWhileWorkersAreBlocked) {
  ThreadPool pool(3);
  BlockedWorkers blocked(&pool);
  std::atomic<int> items{0};
  pool.ParallelFor(64, [&](uint64_t) { items.fetch_add(1); });
  EXPECT_EQ(items.load(), 64);

  TaskGroup group(&pool);
  std::atomic<int> tasks{0};
  for (int i = 0; i < 5; ++i) group.Submit([&] { tasks.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(tasks.load(), 5);

  group.Submit([] { throw std::runtime_error("group failure"); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
  EXPECT_THROW(pool.ParallelFor(8,
                                [](uint64_t i) {
                                  if (i == 3) throw std::logic_error("item");
                                }),
               std::logic_error);
  blocked.Release();
}

TEST(ThreadPoolJoinTest, TaskGroupDestroyedWithQueuedTasksIsSafe) {
  ThreadPool pool(2);
  BlockedWorkers blocked(&pool);
  std::atomic<int> ran{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 6; ++i) group.Submit([&] { ran.fetch_add(1); });
    group.Submit([] { throw std::runtime_error("never observed"); });
    // No Wait(): the destructor runs the queued tasks on this thread.
  }
  EXPECT_EQ(ran.load(), 6);
  blocked.Release();
  // The pool is unaffected: later work runs normally.
  TaskGroup later(&pool);
  later.Submit([&] { ran.fetch_add(1); });
  later.Wait();
  EXPECT_EQ(ran.load(), 7);
}

TEST(ThreadPoolJoinTest, StatsCountTasksTheCallerRan) {
  ThreadPool serial(1);  // no workers: the caller runs everything
  std::atomic<int> counter{0};
  TaskGroup group(&serial);
  for (int i = 0; i < 5; ++i) group.Submit([&] { counter.fetch_add(1); });
  group.Wait();
  for (int i = 0; i < 3; ++i) group.Submit([&] { counter.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(counter.load(), 8);
  EXPECT_EQ(serial.Stats().tasks_run, 8u);

  ThreadPool pool(2);
  BlockedWorkers blocked(&pool);
  TaskGroup blocked_group(&pool);
  for (int i = 0; i < 4; ++i) {
    blocked_group.Submit([&] { counter.fetch_add(1); });
  }
  blocked_group.Wait();  // all four ran here
  EXPECT_EQ(pool.Stats().tasks_run, 5u);  // plus the blocking task
  blocked.Release();
  EXPECT_EQ(pool.Stats().tasks_run, 5u);
}

}  // namespace
}  // namespace opim
