// ThreadPool: every task index runs exactly once, completion blocks the
// caller, pools are reusable across ParallelFor calls, and degenerate
// shapes (0 tasks, 1 thread, more tasks than threads) behave.

#include "common/thread_pool.h"

#include <atomic>
#include <set>
#include <vector>

#include "gtest/gtest.h"

namespace dtree {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    constexpr int kTasks = 200;
    std::vector<std::atomic<int>> hits(kTasks);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(kTasks, [&](int i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (int i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPoolTest, CompletionIsVisibleToTheCaller) {
  // ParallelFor must not return before every task's writes are visible:
  // sum plain (non-atomic) per-task slots after the call.
  ThreadPool pool(4);
  constexpr int kTasks = 500;
  std::vector<int> out(kTasks, 0);
  pool.ParallelFor(kTasks, [&](int i) { out[i] = i + 1; });
  int64_t sum = 0;
  for (int v : out) sum += v;
  EXPECT_EQ(sum, static_cast<int64_t>(kTasks) * (kTasks + 1) / 2);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(round % 7, [&](int) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  int expect = 0;
  for (int round = 0; round < 50; ++round) expect += round % 7;
  EXPECT_EQ(total.load(), expect);
}

// Back-to-back calls whose tasks finish at once: a worker still leaving
// one call's claim loop must not claim, or run, a task of the next call.
// Every task runs exactly once and has finished when its call returns.
TEST(ThreadPoolTest, BackToBackCallsRunEachTaskOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> runs(8);
  for (int round = 0; round < 20000; ++round) {
    const int tasks = 2 + round % 7;
    pool.ParallelFor(tasks, [&](int i) {
      runs[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (int i = 0; i < tasks; ++i) {
      ASSERT_EQ(runs[i].exchange(0, std::memory_order_relaxed), 1)
          << "round " << round << " task " << i;
    }
  }
}

TEST(ThreadPoolTest, ZeroAndNegativeTaskCountsAreNoOps) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(0, [&](int) { count.fetch_add(1); });
  pool.ParallelFor(-5, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
  ThreadPool pool(0);  // 0 selects the default
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, ManyMoreTasksThanThreads) {
  ThreadPool pool(2);
  constexpr int kTasks = 5000;
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(kTasks, [&](int i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<int64_t>(kTasks) * (kTasks - 1) / 2);
}

}  // namespace
}  // namespace dtree
