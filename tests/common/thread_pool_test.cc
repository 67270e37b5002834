// Tests for the shared concurrency layer: exact-once index coverage under
// chunked claiming, caller participation, exception propagation, pool reuse
// across batches, serialization of concurrent ParallelFor callers, and the
// work-stealing scheduler's edge cases — nested submission (the barrier
// deadlock regression), task groups that grow while they run, cancellation,
// and error propagation through TaskGroup::Wait.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace od {
namespace common {
namespace {

TEST(ThreadPoolTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelFor(&pool, kN, [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  // ThreadPool(1) spawns no workers; the loop runs on the calling thread in
  // index order.
  ThreadPool pool(1);
  std::vector<int64_t> order;
  ParallelFor(&pool, 5, [&](int64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, NullPoolRunsInline) {
  // No pool at all: the same entry point runs the loop on the calling
  // thread in index order, and an exception reaches the caller.
  std::vector<int64_t> order;
  std::vector<std::thread::id> threads;
  ParallelFor(nullptr, 5, [&](int64_t i) {
    order.push_back(i);
    threads.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  for (const std::thread::id& id : threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_THROW(ParallelFor(nullptr, 3,
                           [](int64_t i) {
                             if (i == 1) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ZeroAndNegativeCountsAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 0, [&](int64_t) { ++calls; });
  ParallelFor(&pool, -3, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, DefaultSizeUsesHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), ThreadPool::HardwareConcurrency());
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int64_t> sum{0};
    const int64_t n = 100 + round;
    ParallelFor(&pool, n, [&](int64_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), n * (n - 1) / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, FirstExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  std::atomic<int64_t> ran{0};
  try {
    ParallelFor(&pool, 1000, [&](int64_t i) {
      if (i == 17) throw std::runtime_error("boom");
      ran.fetch_add(1);
    });
    FAIL() << "expected the exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // The batch aborts early but the pool stays usable.
  std::atomic<int64_t> sum{0};
  ParallelFor(&pool, 10, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, ConcurrentCallersSerialize) {
  // Two threads issuing ParallelFor against one pool: both must complete
  // with full coverage (the pool serializes batches internally).
  ThreadPool pool(4);
  constexpr int64_t kN = 2000;
  std::vector<std::atomic<int>> a(kN), b(kN);
  for (int64_t i = 0; i < kN; ++i) {
    a[i].store(0);
    b[i].store(0);
  }
  std::thread other(
      [&] { ParallelFor(&pool, kN, [&](int64_t i) { a[i].fetch_add(1); }); });
  ParallelFor(&pool, kN, [&](int64_t i) { b[i].fetch_add(1); });
  other.join();
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(a[i].load(), 1);
    ASSERT_EQ(b[i].load(), 1);
  }
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerTasksCompletes) {
  // Regression for the nested-barrier deadlock: with a thread-per-batch
  // pool, every worker parks at the outer join while the inner loops wait
  // for a free thread, and nothing ever runs. On the task scheduler the
  // outer waiters *help* (Wait runs queued tasks), so the nest drains no
  // matter how the chunks land on workers.
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  ParallelFor(&pool, 8, [&](int64_t) {
    ParallelFor(&pool, 64, [&](int64_t i) { total.fetch_add(i); });
  });
  EXPECT_EQ(total.load(), 8 * (64 * 63 / 2));
}

TEST(ThreadPoolTest, ThreeLevelNestingCompletes) {
  // Depth is unbounded in principle; three levels on a two-thread pool
  // already exercises helping from inside helped tasks.
  ThreadPool pool(2);
  std::atomic<int64_t> leaves{0};
  ParallelFor(&pool, 4, [&](int64_t) {
    ParallelFor(&pool, 4, [&](int64_t) {
      ParallelFor(&pool, 4, [&](int64_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST(TaskGroupTest, TasksSubmittingIntoTheirOwnGroupAllComplete) {
  // The streaming-exchange pump pattern: a running task re-submits into
  // its own group (a parked producer rescheduling itself). Wait must not
  // return until the re-submitted work has run too.
  ThreadPool pool(4);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  std::function<void(int)> chain = [&](int depth) {
    ran.fetch_add(1);
    if (depth < 5) group.Submit([&chain, depth] { chain(depth + 1); });
  };
  for (int i = 0; i < 8; ++i) group.Submit([&chain] { chain(0); });
  group.Wait();
  EXPECT_EQ(ran.load(), 8 * 6);
}

TEST(TaskGroupTest, WaitRethrowsFirstErrorThenClears) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  for (int i = 0; i < 16; ++i) {
    group.Submit([] { throw std::runtime_error("task failed"); });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // The error was consumed: a second Wait (and the destructor) is clean.
  group.Wait();
}

TEST(TaskGroupTest, CancelMakesUnstartedTasksNoOps) {
  ThreadPool pool(3);  // two workers (the pool's caller is thread three)
  TaskGroup group(&pool);
  std::atomic<int> blockers_in{0};
  std::atomic<bool> release{false};
  std::atomic<int> counted{0};
  // Occupy both workers, then queue work behind them and cancel it before
  // letting the workers go. (The waiter below can't steal the counting
  // tasks early: it only starts helping inside Wait, after the Cancel.)
  for (int i = 0; i < 2; ++i) {
    group.Submit([&] {
      blockers_in.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (blockers_in.load() < 2) std::this_thread::yield();
  for (int i = 0; i < 100; ++i) {
    group.Submit([&] { counted.fetch_add(1); });
  }
  group.Cancel();
  release.store(true);
  group.Wait();
  EXPECT_EQ(counted.load(), 0);
}

TEST(TaskGroupTest, NullAndSingleThreadPoolsRunInline) {
  // No pool (and a one-thread pool, which spawns no workers) degrade to
  // immediate inline execution with errors still surfaced at Wait.
  for (int variant = 0; variant < 2; ++variant) {
    ThreadPool serial(1);
    TaskGroup group(variant == 0 ? nullptr : &serial);
    int runs = 0;
    group.Submit([&] { ++runs; });
    EXPECT_EQ(runs, 1);  // ran before Submit returned
    group.Submit([] { throw std::runtime_error("inline boom"); });
    EXPECT_THROW(group.Wait(), std::runtime_error);
  }
}

TEST(ThreadPoolTest, ExternalThreadsShareOnePool) {
  // Non-worker threads submit through the injection queue; workers (and
  // helping waiters) drain it. Several external submitters at once must
  // each see exactly their own group complete.
  ThreadPool pool(4);
  constexpr int kThreads = 3;
  constexpr int kTasksEach = 200;
  std::vector<std::atomic<int>> done(kThreads);
  for (auto& d : done) d.store(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TaskGroup group(&pool);
      for (int i = 0; i < kTasksEach; ++i) {
        group.Submit([&, t] { done[t].fetch_add(1); });
      }
      group.Wait();
      EXPECT_EQ(done[t].load(), kTasksEach);
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace common
}  // namespace od
