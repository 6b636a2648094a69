#include "serve/admission.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "obs/recorder.h"
#include "serve/serve_metrics.h"

namespace slicetuner {
namespace serve {

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(std::move(options)) {
  if (options_.max_queue_depth == 0) options_.max_queue_depth = 1;
  if (options_.num_shards == 0) options_.num_shards = 1;
  queues_.resize(options_.num_shards);
}

size_t AdmissionController::TotalDepthLocked() const {
  size_t depth = 0;
  for (const std::deque<uint64_t>& queue : queues_) depth += queue.size();
  return depth;
}

Status AdmissionController::Admit(uint64_t session_id) {
  // Probe outside the lock: the probe may itself take the pool lock.
  size_t backlog = 0;
  if (options_.max_executor_backlog > 0 && options_.backlog_probe) {
    backlog = options_.backlog_probe();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return Status::FailedPrecondition("server is shutting down");
    }
    const size_t depth = TotalDepthLocked();
    if (depth >= options_.max_queue_depth) {
      ++stats_.shed_queue_full;
      ServeMetrics::Get().shed_queue_full->Add();
      obs::Recorder::Global().RecordHere(obs::EventKind::kShed,
                                         options_.retry_after_ms);
      return Status::ResourceExhausted(StrFormat(
          "admission queue full (%zu/%zu)", depth,
          options_.max_queue_depth));
    }
    if (options_.max_executor_backlog > 0 &&
        backlog > options_.max_executor_backlog) {
      ++stats_.shed_backlog;
      ServeMetrics::Get().shed_backlog->Add();
      obs::Recorder::Global().RecordHere(obs::EventKind::kShed,
                                         options_.retry_after_ms);
      return Status::ResourceExhausted(StrFormat(
          "executor backlog %zu exceeds %zu", backlog,
          options_.max_executor_backlog));
    }
    queues_[session_id % options_.num_shards].push_back(session_id);
    ++stats_.admitted;
    stats_.max_depth_seen = std::max(stats_.max_depth_seen, depth + 1);
    ServeMetrics::Get().admitted->Add();
    ServeMetrics::Get().queue_depth->Set(static_cast<double>(depth + 1));
    obs::Recorder::Global().RecordHere(obs::EventKind::kAdmit,
                                       static_cast<int64_t>(depth + 1));
  }
  // All shard dispatchers share one cv; a wrong-shard wakeup just re-waits.
  work_cv_.notify_all();
  return Status::OK();
}

std::optional<uint64_t> AdmissionController::Next(size_t shard) {
  std::unique_lock<std::mutex> lock(mu_);
  std::deque<uint64_t>& queue = queues_[shard % options_.num_shards];
  work_cv_.wait(lock, [this, &queue] { return stopped_ || !queue.empty(); });
  if (queue.empty()) return std::nullopt;
  const uint64_t id = queue.front();
  queue.pop_front();
  ServeMetrics::Get().queue_depth->Set(
      static_cast<double>(TotalDepthLocked()));
  return id;
}

void AdmissionController::AdmitCancel(uint64_t session_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancels_.push_back(session_id);
    ++stats_.cancels_admitted;
  }
  cancel_cv_.notify_one();
}

std::vector<uint64_t> AdmissionController::NextCancels() {
  std::unique_lock<std::mutex> lock(mu_);
  cancel_cv_.wait(lock, [this] { return stopped_ || !cancels_.empty(); });
  std::vector<uint64_t> batch(cancels_.begin(), cancels_.end());
  cancels_.clear();
  return batch;
}

void AdmissionController::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  work_cv_.notify_all();
  cancel_cv_.notify_all();
}

size_t AdmissionController::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TotalDepthLocked();
}

AdmissionStats AdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace serve
}  // namespace slicetuner
