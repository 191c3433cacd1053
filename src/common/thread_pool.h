// Fixed-size worker pool with a blocking ParallelFor.
//
// The pool exists so that every parallel stage in the repository (the
// experiment driver today; index build and Voronoi clipping later) shares
// one primitive instead of spawning ad-hoc std::threads. Work is handed
// out as task indices [0, num_tasks) claimed atomically, so callers get
// dynamic load balancing for free; determinism is the caller's job (keep
// per-task state private and merge in task order).

#ifndef DTREE_COMMON_THREAD_POOL_H_
#define DTREE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dtree {

class ThreadPool {
 public:
  /// A pool that runs work on `num_threads` threads total, counting the
  /// caller of ParallelFor (so num_threads - 1 workers are spawned).
  /// num_threads <= 0 selects DefaultThreads().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads participating in ParallelFor (>= 1).
  int num_threads() const { return num_threads_; }

  /// Runs fn(i) for every i in [0, num_tasks), distributing indices across
  /// the pool, and returns once all calls have completed. fn must be safe
  /// to invoke concurrently from multiple threads and must not throw.
  /// Calls with num_tasks <= 1 (or on a single-thread pool) run inline on
  /// the caller — same semantics, no synchronization cost.
  void ParallelFor(int num_tasks, const std::function<void(int)>& fn);

  /// std::thread::hardware_concurrency() with a floor of 1.
  static int DefaultThreads();

 private:
  void WorkerLoop();
  void RunTasks();

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers wait for a new generation
  std::condition_variable done_cv_;   ///< ParallelFor waits for completion
  uint64_t generation_ = 0;           ///< bumps once per ParallelFor
  bool stop_ = false;

  const std::function<void(int)>* fn_ = nullptr;
  int num_tasks_ = 0;
  std::atomic<int> next_task_{0};
  int done_tasks_ = 0;  ///< guarded by mutex_
  int running_ = 0;     ///< workers inside RunTasks; guarded by mutex_
};

}  // namespace dtree

#endif  // DTREE_COMMON_THREAD_POOL_H_
