#include "store/maintenance.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace slicetuner {
namespace store {

namespace {

// Maintenance counters and checkpoint latency (docs/OBSERVABILITY.md,
// "Store maintenance").
struct MaintenanceMetrics {
  obs::Counter* checkpoints = obs::MetricsRegistry::Global().counter(
      "store_maintenance_checkpoints_total");
  obs::Counter* failures = obs::MetricsRegistry::Global().counter(
      "store_maintenance_failures_total");
  obs::Counter* journals_retired = obs::MetricsRegistry::Global().counter(
      "store_maintenance_journals_retired_total");
  obs::Counter* snapshots_retired = obs::MetricsRegistry::Global().counter(
      "store_maintenance_snapshots_retired_total");
  obs::Histogram* checkpoint_ns = obs::MetricsRegistry::Global().histogram(
      "store_maintenance_checkpoint_ns");
  // Wall time of the owed checkpoint once it succeeds: on a restarted
  // daemon, the startup checkpoint that runs after the listen socket opens.
  obs::Gauge* owed_checkpoint_ms = obs::MetricsRegistry::Global().gauge(
      "store_replay_phase_ms", "phase", "checkpoint");
};

MaintenanceMetrics& Metrics() {
  static MaintenanceMetrics& metrics = *new MaintenanceMetrics();
  return metrics;
}

}  // namespace

MaintenanceManager::MaintenanceManager(DurableStore* store,
                                       MaintenancePolicy policy,
                                       SnapshotProvider provider)
    : store_(store), policy_(policy), provider_(std::move(provider)) {
  Metrics();  // register every maintenance series before the first scrape
}

MaintenanceManager::~MaintenanceManager() { Stop(); }

void MaintenanceManager::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  running_ = true;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void MaintenanceManager::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

void MaintenanceManager::NotifyJobFinished() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++jobs_since_checkpoint_;
  }
  cv_.notify_all();
}

bool MaintenanceManager::DueLocked() const {
  if (policy_.snapshot_every_jobs > 0 &&
      jobs_since_checkpoint_ >=
          static_cast<size_t>(policy_.snapshot_every_jobs)) {
    return true;
  }
  if (policy_.snapshot_every_bytes > 0 &&
      store_->JournalTailBytes() >=
          static_cast<size_t>(policy_.snapshot_every_bytes)) {
    return true;
  }
  return false;
}

bool MaintenanceManager::CheckpointDue() const {
  std::lock_guard<std::mutex> lock(mu_);
  return DueLocked();
}

Status MaintenanceManager::RunOnce() {
  obs::ScopedTimer checkpoint_timer;
  size_t jobs_at_start;
  bool owed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_at_start = jobs_since_checkpoint_;
    owed = owed_;
  }
  // The owed checkpoint folds the sessions rebuilt from what recovery
  // found, so that tree is dead weight from here on. Freeing it here keeps
  // the cost off the path to the listen socket.
  if (owed) store_->ReleaseRecovered();
  const Result<CheckpointReport> report =
      store_->CheckpointOnline(provider_, policy_.retain_snapshots);
  const uint64_t elapsed_ns = checkpoint_timer.Stop();

  std::lock_guard<std::mutex> lock(mu_);
  if (!report.ok()) {
    ++stats_.failures;
    Metrics().failures->Add();
    return report.status();
  }
  // Jobs that finished while the checkpoint ran still count toward the
  // next one: their records live in the new generation the checkpoint did
  // not cover.
  jobs_since_checkpoint_ -= std::min(jobs_since_checkpoint_, jobs_at_start);
  owed_ = false;
  ++stats_.checkpoints;
  stats_.journals_retired += report->journals_retired;
  stats_.snapshots_retired += report->snapshots_retired;
  stats_.last_checkpoint_ms = obs::NanosToMillis(elapsed_ns);
  Metrics().checkpoints->Add();
  Metrics().journals_retired->Add(report->journals_retired);
  Metrics().snapshots_retired->Add(report->snapshots_retired);
  Metrics().checkpoint_ns->Record(elapsed_ns);
  if (owed) Metrics().owed_checkpoint_ms->Set(stats_.last_checkpoint_ms);
  return Status::OK();
}

void MaintenanceManager::Loop() {
  const auto interval =
      std::chrono::milliseconds(std::max(1, policy_.interval_ms));
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    // With no cadence trigger, the owed checkpoint is the only work.
    if (!owed_ && !policy_.Enabled()) break;
    cv_.wait_for(lock, interval,
                 [this] { return stop_ || owed_ || DueLocked(); });
    if (stop_) break;
    if (!owed_ && !DueLocked()) continue;
    lock.unlock();
    const Status status = RunOnce();
    if (!status.ok()) {
      ST_LOG(Warning) << "store maintenance checkpoint failed (will retry): "
                      << status.ToString();
    }
    lock.lock();
    if (!status.ok() && !stop_) {
      // Plain backoff wait: the failed checkpoint is still owed or due, so
      // the predicate wait above would spin. One interval between retries.
      cv_.wait_for(lock, interval, [this] { return stop_; });
    }
  }
}

MaintenanceStats MaintenanceManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  MaintenanceStats s = stats_;
  s.jobs_since_checkpoint = jobs_since_checkpoint_;
  return s;
}

json::Value MaintenanceManager::StatsJson() const {
  const MaintenanceStats s = stats();
  json::Value out = json::Value::Object();
  out.Set("enabled", policy_.Enabled());
  out.Set("snapshot_every_jobs", policy_.snapshot_every_jobs);
  out.Set("snapshot_every_bytes",
          static_cast<long long>(policy_.snapshot_every_bytes));
  out.Set("interval_ms", policy_.interval_ms);
  out.Set("retain_snapshots", policy_.retain_snapshots);
  out.Set("checkpoints", s.checkpoints);
  out.Set("failures", s.failures);
  out.Set("journals_retired", s.journals_retired);
  out.Set("snapshots_retired", s.snapshots_retired);
  out.Set("jobs_since_checkpoint", s.jobs_since_checkpoint);
  out.Set("last_checkpoint_ms", s.last_checkpoint_ms);
  return out;
}

}  // namespace store
}  // namespace slicetuner
