#include "util/thread_pool.h"

namespace sssj {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(num_threads - 1);
  for (size_t i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // One job at a time: a second caller (another session of a JoinService
  // sharing this pool) blocks here until the current fork/join completes.
  MutexLock caller_lock(caller_mu_);
  {
    MutexLock lock(mu_);
    // Wait out stragglers from the previous job before touching its state.
    while (active_ != 0) idle_.wait(lock.native());
    job_ = &fn;
    num_tasks_ = n;
    next_task_.store(0, std::memory_order_relaxed);
    ++epoch_;
  }
  work_ready_.notify_all();
  RunTasks();
  MutexLock lock(mu_);
  // All tasks were claimed (our own RunTasks drained the counter), so once
  // every registered worker left RunTasks, every task has finished. The
  // mutex hand-off also publishes the workers' side effects to us.
  while (active_ != 0) idle_.wait(lock.native());
  job_ = nullptr;
}

void ThreadPool::RunTasks() {
  // Claims need atomicity only; ordering of the job state is provided by
  // the mutex (registration in WorkerLoop / setup in ParallelFor).
  while (true) {
    const size_t i = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (i >= num_tasks_) return;
    (*job_)(i);
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_epoch = 0;
  MutexLock lock(mu_);
  while (true) {
    while (!stop_ && epoch_ == seen_epoch) work_ready_.wait(lock.native());
    if (stop_) return;
    seen_epoch = epoch_;
    ++active_;
    lock.Unlock();
    RunTasks();
    lock.Lock();
    if (--active_ == 0) idle_.notify_all();
  }
}

size_t HardwareThreads() {
  static const size_t kThreads = [] {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? size_t{1} : static_cast<size_t>(n);
  }();
  return kThreads;
}

}  // namespace sssj
