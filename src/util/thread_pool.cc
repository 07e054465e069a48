#include "util/thread_pool.h"

#include <chrono>
#include <exception>

namespace idm::util {

namespace {
thread_local bool t_on_worker = false;
}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::OnWorkerThread() { return t_on_worker; }

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  uint64_t peak = queue_depth_peak_.load(std::memory_order_relaxed);
  while (depth > peak && !queue_depth_peak_.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::WorkerLoop() {
  t_on_worker = true;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    auto start = std::chrono::steady_clock::now();
    task();  // packaged_task captures exceptions into its future
    auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    busy_micros_.fetch_add(static_cast<uint64_t>(elapsed.count()),
                           std::memory_order_relaxed);
    executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadPool::RunAll(ThreadPool* pool,
                        std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (pool == nullptr || pool->size() == 0 || OnWorkerThread() ||
      tasks.size() == 1) {
    if (pool != nullptr) {
      pool->inline_tasks_.fetch_add(tasks.size(), std::memory_order_relaxed);
    }
    for (auto& task : tasks) task();
    return;
  }
  pool->inline_tasks_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::future<void>> futures;
  futures.reserve(tasks.size() - 1);
  for (size_t i = 1; i < tasks.size(); ++i) {
    futures.push_back(pool->Submit(std::move(tasks[i])));
  }
  // The caller contributes the first task instead of idling on futures.
  std::exception_ptr first_error;
  try {
    tasks[0]();
  } catch (...) {
    first_error = std::current_exception();
  }
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPoolTelemetry ThreadPool::telemetry() const {
  ThreadPoolTelemetry t;
  t.submitted = submitted_.load(std::memory_order_relaxed);
  t.executed = executed_.load(std::memory_order_relaxed);
  t.inline_tasks = inline_tasks_.load(std::memory_order_relaxed);
  t.queue_depth_peak = queue_depth_peak_.load(std::memory_order_relaxed);
  t.busy_micros = busy_micros_.load(std::memory_order_relaxed);
  return t;
}

}  // namespace idm::util
