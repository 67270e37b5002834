#ifndef OD_COMMON_THREAD_POOL_H_
#define OD_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/trace.h"

namespace od {
namespace common {

class TaskGroup;

/// A fixed-size work-stealing task scheduler. The primitive is a task —
/// submitted through a `TaskGroup` — plus `ParallelFor` (below), implemented
/// on top, which keeps the chunked self-balancing loop the prover's batch
/// implication API (`Prover::ProveAll`) and the discovery lattice rely on.
///
/// Scheduling: every worker owns a deque (pushed and popped LIFO at the back
/// for locality); external threads submit into a shared injection queue; a
/// worker with an empty deque takes from the injection queue or steals the
/// oldest task (FIFO front) from another worker. Each deque has its own
/// mutex — tasks here are chunky (a fragment drain, a run sort, a chunk of
/// prover queries), so queue overhead is noise and the locking stays
/// trivially race-free under TSan.
///
/// Nesting: tasks may submit tasks and wait on them. `TaskGroup::Wait` (and
/// the blocking points built on `RunOneTask`, e.g. the streaming exchange's
/// queue pops) *help*: while waiting they run queued tasks instead of
/// blocking the thread, so a plan whose fragments contain their own parallel
/// regions cannot deadlock even with every worker inside an outer task.
///
class ThreadPool {
 public:
  /// `num_threads` ≤ 0 selects HardwareConcurrency().
  explicit ThreadPool(int num_threads);
  /// All TaskGroups submitted to the pool must be waited (or destroyed)
  /// before the pool itself is destroyed.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// std::thread::hardware_concurrency(), never less than 1.
  static int HardwareConcurrency();

  /// Runs one queued task if any is runnable: own deque (LIFO), then the
  /// injection queue, then a FIFO steal sweep over the other workers.
  /// Returns false when every queue is empty. Safe from any thread — this
  /// is the helping hook blocking code uses to keep the pool live while it
  /// waits (TaskGroup::Wait, the streaming exchange's bounded queues).
  bool RunOneTask();

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;  // completion + error sink; never null
    /// The submitter's request context, captured at Submit and restored
    /// around fn — so spans from stolen tasks, helping waiters, and
    /// parked/resumed producers parent under the originating request, not
    /// under whatever the executing thread happened to be doing. The
    /// restore is a no-op under -DOD_TRACE=OFF.
    TraceContext ctx;
  };

  /// Index 0 is the injection queue (external submitters); worker i owns
  /// queues_[i + 1]. Owners push/pop at the back, everyone else at the
  /// front.
  struct Queue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  void Submit(Task t);
  void WorkerLoop(int slot);
  bool TryTake(int queue_idx, bool from_back, Task* out);
  void Execute(Task t);
  /// queues_ index this thread owns: its deque for a worker of this pool,
  /// the injection queue (0) for any other thread.
  int SelfSlot() const;

  const int num_threads_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  /// One cv for every kind of sleeper (idle workers, group waiters): each
  /// re-checks its own predicate, and all predicates include "a task is
  /// runnable", so any wakeup makes progress.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<int64_t> queued_{0};  // runnable (not yet taken) tasks
  bool stop_ = false;               // guarded by idle_mu_
};

/// Invokes `fn(i)` exactly once for every i ∈ [0, n) and returns when all
/// invocations have finished:
///   * The calling thread participates, so a pool of size T uses T threads
///     total. A null or one-thread pool runs the loop inline, in index
///     order, with no synchronization — callers need no serial branch.
///   * `fn` runs concurrently with itself; it must only touch shared state
///     through its own index (or its own synchronization).
///   * If an invocation throws, the first recorded exception is rethrown on
///     the calling thread after the loop drains; remaining unclaimed chunks
///     are abandoned (claimed ones still finish).
///   * Concurrent and nested calls are both fine: each invocation is an
///     independent task group, and nested callers help run their own chunks.
void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& fn);

/// A set of tasks whose completion (and first exception) the submitter
/// observes as a unit. Submit from any thread — including from inside
/// another task; Wait runs queued tasks while it waits, which is what makes
/// nested submission deadlock-free.
///
/// With a null or single-threaded pool, Submit degenerates to running the
/// task inline (errors still surface at Wait), so callers need no serial
/// fallback of their own.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  /// Waits for outstanding tasks but swallows their errors — call Wait()
  /// first if you care (you do).
  ~TaskGroup() { WaitNoThrow(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules `fn`. The group must outlive all submitted tasks — guaranteed
  /// by Wait / the destructor for stack-owned groups.
  void Submit(std::function<void()> fn);

  /// Blocks until every submitted task has finished, helping run queued
  /// tasks (from any group) meanwhile. Rethrows the first recorded
  /// exception, then clears it; tasks that threw after the first are
  /// dropped.
  void Wait();

  /// Makes not-yet-started tasks no-ops (they still count as completed).
  /// Tasks already running are not interrupted. Idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

 private:
  friend class ThreadPool;

  void OnTaskDone();
  void RecordError(std::exception_ptr e);
  void WaitNoThrow();

  ThreadPool* const pool_;
  std::atomic<int64_t> pending_{0};
  std::atomic<bool> cancelled_{false};
  std::mutex err_mu_;
  std::exception_ptr error_;  // first failure, guarded by err_mu_
};

}  // namespace common
}  // namespace od

#endif  // OD_COMMON_THREAD_POOL_H_
