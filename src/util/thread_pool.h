// Work-stealing thread pool for the parallel mining paths.
//
// The pool owns `num_threads - 1` worker threads (the caller of
// ParallelFor is the remaining thread and always participates). Work is
// distributed as index chunks over per-worker deques: an owner pops from
// the back of its own deque (LIFO, cache-friendly for nested spawns) while
// idle workers steal from the front of a victim's deque (FIFO, oldest and
// therefore largest-granularity work first).
//
// ParallelFor may be called from inside a task (nested parallelism): the
// waiting thread never blocks on a condition variable while work is
// outstanding — it keeps executing pending tasks ("helping"), so nested
// waits cannot deadlock the pool.
//
// Determinism: the pool only decides *which thread* runs an index, never
// what the index computes. All mining-level reproducibility comes from
// per-task seeded Rngs and ordered reductions (see DESIGN.md §7).
#ifndef PFCI_UTIL_THREAD_POOL_H_
#define PFCI_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pfci {

/// Work-stealing pool; see file comment. Thread-safe after construction.
class ThreadPool {
 public:
  /// Creates a pool that runs ParallelFor on up to `num_threads` threads
  /// (including the calling thread). `num_threads == 0` means
  /// DefaultThreads(); `num_threads == 1` spawns no workers and makes
  /// ParallelFor run inline.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that may execute loop bodies (workers + caller).
  std::size_t num_threads() const { return num_threads_; }

  /// Runs body(i) for every i in [0, count) and returns when all calls
  /// have completed. Indices are grouped into chunks of `grain` (0 = pick
  /// automatically); chunks are executed by the caller and the workers
  /// with dynamic load balancing. `body` must be safe to invoke
  /// concurrently from multiple threads. Reentrant: `body` may itself
  /// call ParallelFor on the same pool.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& body,
                   std::size_t grain = 0);

  /// Queues `task` to run once on some pool thread and returns at once
  /// (fire-and-forget). Called from a worker, the task goes onto that
  /// worker's own deque, so the worker itself pops it LIFO while idle
  /// threads steal it FIFO. Requires num_threads() > 1. The caller owns
  /// completion tracking: whatever the task touches must outlive it, and
  /// a waiter helps with RunPendingTask until the task signals done.
  void Spawn(std::function<void()> task);

  /// Runs one pending task (any queue) on the calling thread; false when
  /// every queue was empty. The helping half of a caller-owned wait loop
  /// (see Spawn), with the same no-deadlock property as ParallelFor's.
  bool RunPendingTask();

  /// Hardware concurrency, at least 1.
  static std::size_t DefaultThreads();

  /// Lazily constructed process-wide pool with DefaultThreads() threads;
  /// used by Mine() for requests with execution.num_threads == 0 so that
  /// they parallelize without spawning threads per call.
  static ThreadPool& Shared();

 private:
  /// One worker's task deque. Owners pop from the back, thieves from the
  /// front.
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(std::size_t self);

  /// Pops and runs one pending task (own queue first, then steals).
  /// Returns false if every queue was empty.
  bool RunOneTask(std::size_t home);

  /// Pushes a task onto queue `slot % queues` and wakes one worker.
  void Push(std::size_t slot, std::function<void()> task);

  std::size_t num_threads_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_slot_{0};
};

}  // namespace pfci

#endif  // PFCI_UTIL_THREAD_POOL_H_
