#include "common/thread_pool.h"

namespace dtree {

int ThreadPool::DefaultThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads > 0 ? num_threads : DefaultThreads()) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunTasks() {
  int completed = 0;
  int i;
  while ((i = next_task_.fetch_add(1, std::memory_order_relaxed)) <
         num_tasks_) {
    (*fn_)(i);
    ++completed;
  }
  if (completed > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    done_tasks_ += completed;
    if (done_tasks_ == num_tasks_) done_cv_.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock,
                    [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      ++running_;
    }
    // A late wakeup for an already-drained generation is harmless: the
    // claim loop sees next_task_ >= num_tasks_ and claims nothing.
    RunTasks();
    std::lock_guard<std::mutex> lock(mutex_);
    if (--running_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(int num_tasks,
                             const std::function<void(int)>& fn) {
  if (num_tasks <= 0) return;
  if (workers_.empty() || num_tasks == 1) {
    for (int i = 0; i < num_tasks; ++i) fn(i);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // A worker may still be leaving the previous call's claim loop, which
    // reads num_tasks_ and next_task_ unlocked. Resetting them under it
    // could hand it a task of this call from the old counter (run twice,
    // and counted past num_tasks_, so this call would never see its last
    // completion); wait until it is out.
    done_cv_.wait(lock, [&] { return running_ == 0; });
    fn_ = &fn;
    num_tasks_ = num_tasks;
    next_task_.store(0, std::memory_order_relaxed);
    done_tasks_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();
  RunTasks();  // the caller is one of the pool's threads
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return done_tasks_ == num_tasks_; });
  fn_ = nullptr;
}

}  // namespace dtree
