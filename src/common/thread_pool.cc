#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "common/metrics.h"
#include "common/trace.h"

namespace od {
namespace common {

namespace {

Counter& SubmitsCounter() {
  static Counter& c = MetricRegistry::Global().GetCounter(
      "od_threadpool_submits_total", "Tasks submitted to the scheduler");
  return c;
}

Counter& StealsCounter() {
  static Counter& c = MetricRegistry::Global().GetCounter(
      "od_threadpool_steals_total",
      "Tasks taken from another worker's deque");
  return c;
}

Gauge& QueueDepthGauge() {
  static Gauge& g = MetricRegistry::Global().GetGauge(
      "od_threadpool_queue_depth", "Runnable (not yet taken) tasks");
  return g;
}

Histogram& TaskLatencyHistogram() {
  static Histogram& h = MetricRegistry::Global().GetHistogram(
      "od_threadpool_task_us", "Execution wall-clock per task");
  return h;
}

/// Which pool (if any) the current thread is a worker of, and its deque
/// index there. Workers never migrate between pools, so this is set once
/// per worker thread; any other thread reads a null pool and submits into
/// the injection queue.
struct TlsSlot {
  const void* pool = nullptr;
  int slot = 0;
};
thread_local TlsSlot tls_slot;

}  // namespace

int ThreadPool::HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads <= 0 ? HardwareConcurrency() : num_threads) {
  queues_.reserve(num_threads_);
  for (int i = 0; i < num_threads_; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(num_threads_ - 1);
  for (int i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    stop_ = true;
  }
  idle_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::SelfSlot() const {
  return tls_slot.pool == this ? tls_slot.slot : 0;
}

void ThreadPool::Submit(Task t) {
  const int idx = SelfSlot();
  {
    std::lock_guard<std::mutex> lock(queues_[idx]->mu);
    queues_[idx]->tasks.push_back(std::move(t));
  }
  queued_.fetch_add(1, std::memory_order_release);
  SubmitsCounter().Add(1);
  QueueDepthGauge().Add(1);
  // Empty critical section: a sleeper evaluates its predicate under
  // idle_mu_, so publishing queued_ before taking the lock and notifying
  // after releasing it cannot lose the wakeup.
  { std::lock_guard<std::mutex> lock(idle_mu_); }
  idle_cv_.notify_one();
}

bool ThreadPool::TryTake(int queue_idx, bool from_back, Task* out) {
  Queue& q = *queues_[queue_idx];
  std::lock_guard<std::mutex> lock(q.mu);
  if (q.tasks.empty()) return false;
  if (from_back) {
    *out = std::move(q.tasks.back());
    q.tasks.pop_back();
  } else {
    *out = std::move(q.tasks.front());
    q.tasks.pop_front();
  }
  queued_.fetch_sub(1, std::memory_order_relaxed);
  QueueDepthGauge().Add(-1);
  return true;
}

bool ThreadPool::RunOneTask() {
  const int self = SelfSlot();
  const int nq = static_cast<int>(queues_.size());
  Task t;
  // Own deque first, newest task first: nested submissions run on the
  // thread that made them while they're still cache-hot.
  if (self != 0 && TryTake(self, /*from_back=*/true, &t)) {
    Execute(std::move(t));
    return true;
  }
  if (TryTake(0, /*from_back=*/false, &t)) {
    Execute(std::move(t));
    return true;
  }
  // Steal sweep, oldest task first, starting past our own slot so thieves
  // spread out instead of all hammering worker 1.
  if (nq > 1) {
    for (int i = 1; i < nq; ++i) {
      const int idx = 1 + (self + i - 1) % (nq - 1);
      if (idx == self) continue;
      if (TryTake(idx, /*from_back=*/false, &t)) {
        StealsCounter().Add(1);
        Execute(std::move(t));
        return true;
      }
    }
  }
  return false;
}

void ThreadPool::Execute(Task t) {
  TaskGroup* group = t.group;
  if (!group->cancelled()) {
    const auto start = std::chrono::steady_clock::now();
    {
      // The task runs under its *submitter's* request context — restored
      // here precisely because the executing thread may be a thief or a
      // helping waiter mid-request of its own.
      TraceContextScope ctx(t.ctx);
      OD_TRACE_SPAN("thread_pool.task");
      try {
        t.fn();
      } catch (...) {
        group->RecordError(std::current_exception());
      }
    }
    TaskLatencyHistogram().Record(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  group->OnTaskDone();
}

void ThreadPool::WorkerLoop(int slot) {
  tls_slot.pool = this;
  tls_slot.slot = slot;
  for (;;) {
    if (RunOneTask()) continue;
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [&] {
      return stop_ || queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_) return;
  }
}

void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  const int num_threads = pool == nullptr ? 1 : pool->num_threads();
  if (num_threads == 1 || n == 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Aim for several chunks per thread so late stragglers rebalance, but
  // chunks of at least one item so the cursor isn't contended per item.
  const int64_t grain = std::max<int64_t>(1, n / (int64_t{8} * num_threads));
  std::atomic<int64_t> next{0};
  std::atomic<bool> failed{false};
  // Everything is captured by reference: the TaskGroup below joins all
  // chunk runners before this frame unwinds.
  const auto run_chunks = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const int64_t begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      const int64_t end = std::min(n, begin + grain);
      OD_TRACE_SPAN("thread_pool.chunk");
      try {
        for (int64_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw;  // recorded by the group (or caught below for the caller)
      }
    }
  };

  const int64_t chunks = (n + grain - 1) / grain;
  const int fanout =
      static_cast<int>(std::min<int64_t>(num_threads - 1, chunks));
  TaskGroup group(pool);
  for (int i = 0; i < fanout; ++i) group.Submit(run_chunks);

  std::exception_ptr caller_error;
  try {
    run_chunks();  // the caller is a participant
  } catch (...) {
    caller_error = std::current_exception();
  }
  group.Wait();
  if (caller_error) std::rethrow_exception(caller_error);
}

void TaskGroup::Submit(std::function<void()> fn) {
  if (pool_ == nullptr || pool_->num_threads() <= 1) {
    if (!cancelled()) {
      try {
        fn();
      } catch (...) {
        RecordError(std::current_exception());
      }
    }
    return;
  }
  pending_.fetch_add(1, std::memory_order_acq_rel);
  pool_->Submit(
      ThreadPool::Task{std::move(fn), this, Tracer::CurrentContext()});
}

void TaskGroup::OnTaskDone() {
  // The moment pending_ hits zero a waiter may return from Wait() and
  // destroy this group, so nothing may touch group members after the
  // decrement — the pool pointer is cached first (the pool strictly
  // outlives every group waiting on it: Wait runs on a frame that holds
  // a live pool reference).
  ThreadPool* pool = pool_;
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(pool->idle_mu_);
    pool->idle_cv_.notify_all();
  }
}

void TaskGroup::RecordError(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(err_mu_);
  if (!error_) error_ = std::move(e);
}

void TaskGroup::Wait() {
  WaitNoThrow();
  std::exception_ptr e;
  {
    std::lock_guard<std::mutex> lock(err_mu_);
    e = std::move(error_);
    error_ = nullptr;
  }
  if (e) std::rethrow_exception(e);
}

void TaskGroup::WaitNoThrow() {
  while (pending_.load(std::memory_order_acquire) > 0) {
    if (pool_->RunOneTask()) continue;
    std::unique_lock<std::mutex> lock(pool_->idle_mu_);
    pool_->idle_cv_.wait(lock, [&] {
      return pending_.load(std::memory_order_acquire) == 0 ||
             pool_->queued_.load(std::memory_order_acquire) > 0;
    });
  }
}

}  // namespace common
}  // namespace od
