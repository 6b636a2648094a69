// Autonomous store maintenance: a cadence policy plus the background
// thread that drives DurableStore::CheckpointOnline while the daemon
// serves traffic. Every manager owes one checkpoint from construction:
// its thread runs that checkpoint first, before any cadence checkpoint.
// On a restarted daemon this is the startup checkpoint, which folds the
// restored sessions into a fresh snapshot and retires the recovered
// journal chain after the listen socket is already open. After it, the
// serving layer notifies the manager on every finished job, and the
// policy triggers a checkpoint after N finished jobs and/or once the
// un-snapshotted journal tail exceeds M bytes, whichever fires first; a
// policy with no trigger runs only the owed checkpoint. Each checkpoint
// collapses the sealed journal chain into a fresh snapshot, retires the
// covered generations, and trims superseded snapshots to a retention
// count — in bounded phases that never stop the world (writers only block
// for the O(1) generation rotate).
//
// Failure policy: a checkpoint that fails (disk full, injected EIO, fsync
// error) leaves the previous snapshot and the journal chain intact and
// serving unaffected; the failure is counted
// (store_maintenance_failures_total) and the thread retries one
// interval_ms later — the owed checkpoint stays owed until one succeeds.
// docs/STATE.md ("Maintenance lifecycle") documents the crash-recovery
// invariant at every phase boundary; tests/store_maintenance_test.cc
// enforces them through the store::FaultInjector seam.

#ifndef SLICETUNER_STORE_MAINTENANCE_H_
#define SLICETUNER_STORE_MAINTENANCE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/json.h"
#include "common/result.h"
#include "store/store.h"

namespace slicetuner {
namespace store {

struct MaintenancePolicy {
  /// Checkpoint after this many finished jobs (0 = no job trigger).
  int snapshot_every_jobs = 0;
  /// Checkpoint once the un-snapshotted journal tail exceeds this many
  /// bytes (0 = no byte trigger).
  long long snapshot_every_bytes = 0;
  /// Maintenance thread wake cadence; triggers are also checked eagerly on
  /// every finished-job notification.
  int interval_ms = 250;
  /// Superseded checkpoints kept as snapshot-NNNNNN.st rollback artifacts
  /// (the server's startup, shutdown and `snapshot`-verb checkpoints honor
  /// it too).
  int retain_snapshots = 2;

  /// The policy is active when at least one trigger is configured.
  bool Enabled() const {
    return snapshot_every_jobs > 0 || snapshot_every_bytes > 0;
  }
};

struct MaintenanceStats {
  size_t checkpoints = 0;
  size_t failures = 0;
  size_t journals_retired = 0;
  size_t snapshots_retired = 0;
  size_t jobs_since_checkpoint = 0;
  /// Wall milliseconds of the most recent successful checkpoint.
  double last_checkpoint_ms = 0.0;
};

class MaintenanceManager {
 public:
  /// `provider` must return a snapshot document covering every record
  /// journaled so far (the serving layer passes
  /// SessionManager::DurableSnapshot). It is called from the maintenance
  /// thread with no store lock held, so it may take serving-layer locks.
  using SnapshotProvider = std::function<json::Value()>;

  MaintenanceManager(DurableStore* store, MaintenancePolicy policy,
                     SnapshotProvider provider);
  ~MaintenanceManager();

  MaintenanceManager(const MaintenanceManager&) = delete;
  MaintenanceManager& operator=(const MaintenanceManager&) = delete;

  /// Launches the maintenance thread, which runs the owed checkpoint
  /// first. Idempotent.
  void Start();

  /// Stops and joins the thread (a checkpoint in flight completes first).
  /// Idempotent; the destructor calls it.
  void Stop();

  /// One finished job (the serving layer's cadence signal).
  void NotifyJobFinished();

  /// True when either cadence trigger fires. The checkpoint owed from
  /// construction is not a trigger: it is pending until any checkpoint of
  /// this manager succeeds.
  bool CheckpointDue() const;

  /// Runs one checkpoint now, regardless of the triggers — the maintenance
  /// thread's body, also called directly by tests and benches. A success
  /// settles the owed checkpoint. While the checkpoint is owed, RunOnce
  /// first frees the store's recovered state (DurableStore::
  /// ReleaseRecovered), so the sessions must already be restored from it.
  Status RunOnce();

  MaintenanceStats stats() const;
  json::Value StatsJson() const;

 private:
  void Loop();
  bool DueLocked() const;

  DurableStore* const store_;  // not owned
  const MaintenancePolicy policy_;
  const SnapshotProvider provider_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  bool stop_ = false;
  // The checkpoint owed from construction, cleared by the first success.
  bool owed_ = true;
  size_t jobs_since_checkpoint_ = 0;
  MaintenanceStats stats_;
};

}  // namespace store
}  // namespace slicetuner

#endif  // SLICETUNER_STORE_MAINTENANCE_H_
