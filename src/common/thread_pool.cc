#include "common/thread_pool.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/timer.h"

namespace slicetuner {

namespace {

// Pool utilization metrics (docs/OBSERVABILITY.md, "Thread pool").
// Resolved once; recording is lock-free.
struct PoolMetrics {
  obs::Counter* tasks =
      obs::MetricsRegistry::Global().counter("pool_tasks_total");
  obs::Histogram* queue_wait =
      obs::MetricsRegistry::Global().histogram("pool_queue_wait_ns");
  obs::Histogram* run =
      obs::MetricsRegistry::Global().histogram("pool_run_ns");
};

PoolMetrics& Metrics() {
  static PoolMetrics& metrics = *new PoolMetrics();
  return metrics;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(QueuedTask{std::move(task), obs::MonotonicNanos()});
  }
  task_ready_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

size_t ThreadPool::PendingCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

size_t ThreadPool::InFlightCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    Metrics().tasks->Add();
    Metrics().queue_wait->Record(obs::MonotonicNanos() - task.enqueued_ns);
    {
      obs::ScopedTimer run_timer(Metrics().run);
      task.fn();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

ThreadPool& DefaultThreadPool() {
  // Function-local static reference; never destroyed (see style guide on
  // static storage duration objects).
  static ThreadPool& pool = *new ThreadPool();
  return pool;
}

}  // namespace slicetuner
