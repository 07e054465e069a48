// Concurrency stress tests for the fixed-size thread pool (DESIGN.md §8).
//
// These tests are built into the `concurrency` ctest label and are also the
// payload of the TSan build (cmake -DIDM_SANITIZE=thread): they hammer the
// queue from many submitters, verify the ordered-merge determinism contract
// of OrderedParallelMap, and exercise the inline-on-worker nesting rule that
// makes single-level fan-out deadlock-free.

#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace idm::util {
namespace {

TEST(ThreadPoolTest, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::vector<int> order;
  ThreadPool::RunAll(&pool, {[&] { order.push_back(1); },
                             [&] { order.push_back(2); },
                             [&] { order.push_back(3); }});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadPoolTest, NullPoolRunsInline) {
  std::vector<int> order;
  ThreadPool::RunAll(nullptr, {[&] { order.push_back(7); },
                               [&] { order.push_back(8); }});
  EXPECT_EQ(order, (std::vector<int>{7, 8}));
}

TEST(ThreadPoolTest, SubmitResolvesFuture) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, ManySubmittersStress) {
  ThreadPool pool(4);
  constexpr int kSubmitters = 8;
  constexpr int kPerSubmitter = 200;
  std::atomic<int> counter{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counter] {
      std::vector<std::future<void>> futures;
      futures.reserve(kPerSubmitter);
      for (int i = 0; i < kPerSubmitter; ++i) {
        futures.push_back(pool.Submit([&counter] { ++counter; }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(counter.load(), kSubmitters * kPerSubmitter);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 128; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
    // No get(): the destructor must still run everything queued.
  }
  EXPECT_EQ(counter.load(), 128);
}

TEST(ThreadPoolTest, RunAllWaitsForAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 40; ++i) {
    tasks.push_back([&done] { ++done; });
  }
  ThreadPool::RunAll(&pool, std::move(tasks));
  EXPECT_EQ(done.load(), 40);
}

TEST(ThreadPoolTest, RunAllPropagatesFirstExceptionByIndex) {
  ThreadPool pool(2);
  // Task 1 throws "early", task 3 throws "late"; the rethrown exception must
  // be the first *by index*, not by completion time.
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] {});
  tasks.push_back([] { throw std::runtime_error("early"); });
  tasks.push_back([] {});
  tasks.push_back([] { throw std::runtime_error("late"); });
  try {
    ThreadPool::RunAll(&pool, std::move(tasks));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "early");
  }
}

TEST(ThreadPoolTest, NestedRunAllOnWorkerRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  std::atomic<bool> saw_worker{false};
  std::atomic<bool> nested_inline{false};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&pool, &inner_runs, &saw_worker, &nested_inline] {
      if (ThreadPool::OnWorkerThread()) saw_worker = true;
      // This nested fan-out must not re-enter the queue from a worker (that
      // is the deadlock-freedom rule); it runs inline instead.
      const bool on_worker = ThreadPool::OnWorkerThread();
      ThreadPool::RunAll(&pool, {[&inner_runs, &nested_inline, on_worker] {
                                   ++inner_runs;
                                   if (on_worker &&
                                       ThreadPool::OnWorkerThread()) {
                                     nested_inline = true;
                                   }
                                 },
                                 [&inner_runs] { ++inner_runs; }});
    });
  }
  ThreadPool::RunAll(&pool, std::move(outer));
  EXPECT_EQ(inner_runs.load(), 8);
  // With 2 workers and 4 outer tasks at least one outer task lands on a
  // worker thread, so the inline path was actually exercised.
  EXPECT_TRUE(saw_worker.load());
  EXPECT_TRUE(nested_inline.load());
}

TEST(ThreadPoolTest, OnWorkerThreadFalseOnCaller) {
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  ThreadPool pool(1);
  bool on_worker_inside = false;
  pool.Submit([&on_worker_inside] {
        on_worker_inside = ThreadPool::OnWorkerThread();
      })
      .get();
  EXPECT_TRUE(on_worker_inside);
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

TEST(OrderedParallelMapTest, ResultsAreInIndexOrder) {
  ThreadPool pool(4);
  const size_t n = 500;
  std::vector<int> out = OrderedParallelMap<int>(
      &pool, n, [](size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(OrderedParallelMapTest, DeterministicAcrossRunsAndPoolSizes) {
  auto run = [](ThreadPool* pool) {
    return OrderedParallelMap<std::string>(pool, 64, [](size_t i) {
      std::string s;
      for (size_t j = 0; j <= i % 7; ++j) s += static_cast<char>('a' + i % 26);
      return s;
    });
  };
  std::vector<std::string> serial = run(nullptr);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(run(&pool), serial) << "threads=" << threads;
    }
  }
}

TEST(OrderedParallelMapTest, SharedAccumulatorUnderTSan) {
  // Each slot touches only its own state; the merged sum equals the serial
  // sum. Under -fsanitize=thread this doubles as a race detector for the
  // pool internals.
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<long> parts = OrderedParallelMap<long>(
      &pool, n, [](size_t i) { return static_cast<long>(i); });
  long total = std::accumulate(parts.begin(), parts.end(), 0L);
  EXPECT_EQ(total, static_cast<long>(n * (n - 1) / 2));
}

}  // namespace
}  // namespace idm::util
