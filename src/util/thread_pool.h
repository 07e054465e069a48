// Fixed-size thread pool for running independent queries concurrently
// (DESIGN.md §8): loadgen's query batches and federation's per-peer
// scatter-gather. A single query never fans out on it.
//
// The pool is deliberately minimal: a bounded set of workers, a FIFO task
// queue, and futures for completion. Determinism is the caller's contract —
// parallel callers fan work out over *index-addressed slots* and merge in
// slot order (OrderedParallelMap / RunAll below), so the merged output is
// byte-identical to a serial run regardless of scheduling.
//
// Nesting rule: RunAll/OrderedParallelMap executed *on a worker thread* run
// their tasks inline instead of re-submitting. Fan-out therefore happens at
// one level only, tasks never block on other tasks, and a fixed pool cannot
// deadlock on its own queue.

#ifndef IDM_UTIL_THREAD_POOL_H_
#define IDM_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace idm::util {

/// Point-in-time counters describing pool load, sampled by
/// ThreadPool::telemetry(). Always on (plain relaxed atomics underneath —
/// util sits below the observability layer, so the obs metrics registry
/// samples these rather than the pool pushing into it).
struct ThreadPoolTelemetry {
  uint64_t submitted = 0;        ///< tasks handed to Submit()
  uint64_t executed = 0;         ///< tasks completed on a worker
  uint64_t inline_tasks = 0;     ///< RunAll tasks run on the calling thread
  uint64_t queue_depth_peak = 0; ///< max queue length observed at submit
  uint64_t busy_micros = 0;      ///< wall time workers spent inside tasks
};

class ThreadPool {
 public:
  /// Spawns \p threads workers. 0 is allowed and makes every RunAll caller
  /// fall back to inline execution (a pool-shaped no-op).
  explicit ThreadPool(size_t threads);

  /// Drains the queue (pending tasks still run) and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// True when the calling thread is one of *any* ThreadPool's workers.
  static bool OnWorkerThread();

  /// Enqueues \p fn; the future resolves when it has run (exceptions
  /// propagate through the future).
  std::future<void> Submit(std::function<void()> fn);

  /// Runs every task in \p tasks and returns when all have completed.
  /// Tasks run on \p pool workers, except: the first task runs inline on
  /// the caller (it would otherwise idle-wait), and when \p pool is null,
  /// empty, or the caller is itself a worker, *all* tasks run inline in
  /// order. Exceptions from tasks are rethrown (first by task index).
  static void RunAll(ThreadPool* pool, std::vector<std::function<void()>> tasks);

  /// Samples the load counters (consistent enough for monitoring; each
  /// field is read with a relaxed load).
  ThreadPoolTelemetry telemetry() const;

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> inline_tasks_{0};
  std::atomic<uint64_t> queue_depth_peak_{0};
  std::atomic<uint64_t> busy_micros_{0};
};

/// Applies `fn(i)` for every i in [0, n) — in parallel when \p pool allows —
/// and returns the results in index order. `Fn` must be callable
/// concurrently; the output is identical to the serial loop by
/// construction (each call writes its own slot, merged in index order).
template <typename T, typename Fn>
std::vector<T> OrderedParallelMap(ThreadPool* pool, size_t n, Fn fn) {
  std::vector<std::optional<T>> slots(n);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tasks.push_back([&slots, &fn, i] { slots[i].emplace(fn(i)); });
  }
  ThreadPool::RunAll(pool, std::move(tasks));
  std::vector<T> out;
  out.reserve(n);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace idm::util

#endif  // IDM_UTIL_THREAD_POOL_H_
