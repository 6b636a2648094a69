// Fixed-size thread pool used to parallelize independent model trainings
// during learning-curve estimation (Section 4.2 of the paper notes curves can
// be generated in parallel).

#ifndef SLICETUNER_COMMON_THREAD_POOL_H_
#define SLICETUNER_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace slicetuner {

/// A minimal work-stealing-free thread pool. Submit() enqueues a task;
/// WaitIdle() blocks until all submitted tasks have completed. The pool is
/// neither copyable nor movable.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (0 means hardware_concurrency, min 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running.
  void WaitIdle();

  /// Tasks submitted but not yet picked up by a worker (the queue depth).
  /// A point-in-time snapshot: the real backlog signal admission control
  /// sheds load on (serve/admission.h).
  size_t PendingCount() const;

  /// Tasks currently executing on a worker.
  size_t InFlightCount() const;

  size_t num_threads() const { return workers_.size(); }

 private:
  // Each queued task remembers when it was submitted so the worker can
  // attribute queue-wait time (pool_queue_wait_ns in src/obs/).
  struct QueuedTask {
    std::function<void()> fn;
    uint64_t enqueued_ns = 0;
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> queue_;
  mutable std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// Process-wide default pool (lazily created, never destroyed before exit).
ThreadPool& DefaultThreadPool();

}  // namespace slicetuner

#endif  // SLICETUNER_COMMON_THREAD_POOL_H_
