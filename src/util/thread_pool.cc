#include "src/util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace pfci {

namespace {

/// Worker index + 1 of the current thread in its owning pool; 0 for
/// threads that are not pool workers (so external callers steal from
/// every queue with equal priority).
thread_local std::size_t tls_worker_slot = 0;

constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreads();
  num_threads_ = std::max<std::size_t>(1, num_threads);
  const std::size_t num_workers = num_threads_ - 1;
  queues_.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    // Pairs with the wait predicate: no worker can re-check the predicate
    // between our store and the notify and then sleep forever.
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t ThreadPool::DefaultThreads() {
  const unsigned int hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(DefaultThreads());
  return pool;
}

void ThreadPool::Push(std::size_t slot, std::function<void()> task) {
  Queue& queue = *queues_[slot % queues_.size()];
  {
    std::lock_guard<std::mutex> lock(queue.mutex);
    queue.tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_one();
}

bool ThreadPool::RunOneTask(std::size_t home) {
  const std::size_t num_queues = queues_.size();
  std::function<void()> task;
  for (std::size_t k = 0; k < num_queues; ++k) {
    const std::size_t index =
        home == kNotAWorker ? k : (home + k) % num_queues;
    Queue& queue = *queues_[index];
    {
      std::lock_guard<std::mutex> lock(queue.mutex);
      if (queue.tasks.empty()) continue;
      if (index == home) {
        task = std::move(queue.tasks.back());
        queue.tasks.pop_back();
      } else {
        task = std::move(queue.tasks.front());
        queue.tasks.pop_front();
      }
    }
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    task();
    return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(std::size_t self) {
  tls_worker_slot = self + 1;
  for (;;) {
    if (RunOneTask(self)) continue;
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire)) {
      lock.unlock();
      // Drain leftovers so no enqueued task is stranded by shutdown.
      while (RunOneTask(self)) {
      }
      return;
    }
  }
}

void ThreadPool::Spawn(std::function<void()> task) {
  const std::size_t slot =
      tls_worker_slot != 0 ? tls_worker_slot - 1
                           : next_slot_.fetch_add(1, std::memory_order_relaxed);
  Push(slot, std::move(task));
}

bool ThreadPool::RunPendingTask() {
  if (queues_.empty()) return false;
  return RunOneTask(tls_worker_slot != 0 ? tls_worker_slot - 1 : kNotAWorker);
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& body,
                             std::size_t grain) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  if (grain == 0) {
    grain = std::max<std::size_t>(1, count / (4 * num_threads_));
  }
  const std::size_t num_chunks = (count + grain - 1) / grain;

  // Remaining-index counter the caller spins on; shared_ptr so a task that
  // finishes after ParallelFor returns (impossible, but cheap to be safe
  // about) never touches a dead frame except through it.
  auto done = std::make_shared<std::atomic<std::size_t>>(0);
  // Scatter chunks across the worker deques, starting at this thread's
  // own deque when called from a worker (nested case: LIFO pop then gives
  // the freshly spawned chunks priority).
  const std::size_t first_slot = tls_worker_slot != 0
                                     ? tls_worker_slot - 1
                                     : next_slot_.fetch_add(
                                           1, std::memory_order_relaxed);
  for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
    const std::size_t begin = chunk * grain;
    const std::size_t end = std::min(count, begin + grain);
    Push(first_slot + chunk, [done, &body, begin, end] {
      for (std::size_t i = begin; i < end; ++i) body(i);
      done->fetch_add(end - begin, std::memory_order_acq_rel);
    });
  }

  const std::size_t home =
      tls_worker_slot != 0 ? tls_worker_slot - 1 : kNotAWorker;
  while (done->load(std::memory_order_acquire) < count) {
    // Help: run pending tasks (ours or anybody's) instead of blocking, so
    // nested ParallelFor calls cannot deadlock.
    if (!RunOneTask(home)) std::this_thread::yield();
  }
}

}  // namespace pfci
