// DurableStore: a state directory holding one snapshot plus a chain of
// write-ahead journal generations. This is the storage engine under the
// serving layer's warm restarts (src/serve/session_manager.h wires session
// events through it; docs/STATE.md is the normative format spec).
//
// Directory layout:
//
//   <dir>/snapshot.st        latest checkpoint (store/snapshot.h framing,
//                            replaced atomically)
//   <dir>/journal-NNNNNN.wal CRC-framed record log (store/journal.h framing);
//                            NNNNNN is the generation number
//   <dir>/snapshot-NNNNNN.st superseded checkpoint kept for rollback
//
// Lifecycle and invariants:
//
//   * Open() recovers: read the snapshot (if any), then every journal
//     generation in order. The recovered records are exactly the events
//     appended since the *earliest retained* generation began; consumers
//     skip records the snapshot already covers (the serving layer keys this
//     off per-session event sequence numbers). A torn tail is tolerated in
//     the newest generation only; anywhere else it is corruption.
//   * Appends go to a generation opened fresh by Open() — recovered files
//     are never appended to.
//   * CheckpointOnline() is the one checkpoint path — the startup and
//     cadence checkpoints of background maintenance, the `snapshot` verb
//     and the shutdown snapshot all use it. It collapses the chain while
//     the store serves writers, phased so appends only block for the O(1)
//     generation rotate (docs/STATE.md, "Maintenance lifecycle", spells
//     out the per-phase crash invariants), and retires every generation the
//     new snapshot covers. Superseded checkpoints are kept as
//     `snapshot-NNNNNN.st` rollback artifacts up to a retention count.
//
// Thread safety: append-path methods are serialized on one internal mutex;
// checkpoints are serialized among themselves on a checkpoint mutex, which
// CheckpointOnline holds *instead of* the append mutex for its slow
// phases. Append is cheap (buffered); Sync is the group-commit fsync.

#ifndef SLICETUNER_STORE_STORE_H_
#define SLICETUNER_STORE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "store/journal.h"

namespace slicetuner {
namespace store {

/// Everything recovery found in a state directory.
struct RecoveredState {
  /// The snapshot document; null (is_null()) when none was on disk.
  json::Value snapshot;
  /// Journal records appended after the retained chain began, in order.
  std::vector<json::Value> tail;
  /// True when a torn final record was dropped from the newest generation.
  bool tail_truncated = false;
  size_t bytes_discarded = 0;
  /// Valid journal bytes across the recovered chain (the replay window a
  /// restart had to pay for, in bytes).
  size_t journal_bytes = 0;
};

/// Read-only recovery: what Open() would see, without becoming a writer.
/// Usable on a directory another store instance is actively appending to
/// (the reader simply sees a prefix; unflushed bytes look like a torn tail).
Result<RecoveredState> ReadStateDir(const std::string& dir);

struct DurableStoreStats {
  size_t records_appended = 0;
  size_t syncs = 0;
  size_t snapshots_written = 0;
  uint64_t journal_generation = 0;
  /// Journal generations / retained snapshots deleted by checkpoints.
  size_t journals_retired = 0;
  size_t snapshots_retired = 0;
  /// Un-snapshotted journal bytes (sealed chain + live generation).
  size_t journal_tail_bytes = 0;
  /// Times the tail crossed the warning threshold (see SetTailWarnBytes).
  size_t tail_warnings = 0;
};

/// What one CheckpointOnline pass did.
struct CheckpointReport {
  /// Newest generation the checkpoint covers (everything <= it retired).
  uint64_t sealed_generation = 0;
  size_t journals_retired = 0;
  size_t snapshots_retired = 0;
  size_t snapshot_bytes = 0;
};

class DurableStore {
 public:
  /// Recovers `dir` (created if missing) and opens a fresh journal
  /// generation for appending. Fails on mid-file corruption or an
  /// unreadable snapshot — never silently drops state.
  static Result<std::unique_ptr<DurableStore>> Open(const std::string& dir);

  ~DurableStore();

  /// What recovery found (fixed at Open; replaying it is the caller's job).
  const RecoveredState& recovered() const { return recovered_; }
  const std::string& dir() const { return dir_; }

  /// Frees the recovered snapshot document and journal records once the
  /// caller has replayed them; recovered() keeps only its scalar fields,
  /// and StatsJson keeps reporting what recovery found. No other thread may
  /// read recovered() meanwhile.
  void ReleaseRecovered();

  /// Syncs, then reads the directory back the way Open() would recover it
  /// (ReadStateDir). Checkpoints are held off meanwhile, so the read never
  /// sees a generation retired underneath it.
  Result<RecoveredState> SyncAndRead();

  /// Appends one record to the live journal generation (buffered).
  Status Append(const json::Value& record);

  /// Group-commit: fsync everything appended so far.
  Status Sync();

  /// Online checkpoint — the background-maintenance collapse, safe while
  /// other threads append. Phases (each bounded, each a registered fault
  /// point — src/store/fault_injector.h):
  ///
  ///   1. seal+rotate (append mutex, O(1)): close the live generation,
  ///      open a fresh one; writers keep appending there immediately.
  ///   2. fold: call `provider` for a document covering everything up to
  ///      at least the sealed chain (it may cover more: replay skips
  ///      covered records by sequence number).
  ///   3. publish: hard-link the current snapshot.st to its retained
  ///      `snapshot-NNNNNN.st` name, then atomically replace snapshot.st.
  ///   4. retire the journal generations the new checkpoint covers,
  ///      oldest first.
  ///   5. retire retained snapshots beyond `retain_snapshots`.
  ///
  /// A crash or injected failure at any boundary leaves a directory Open()
  /// recovers to the identical logical state; a failed call leaves the
  /// live store serving (the next maintenance tick simply retries).
  Result<CheckpointReport> CheckpointOnline(
      const std::function<json::Value()>& provider, int retain_snapshots);

  /// Un-snapshotted journal bytes: the sealed-but-unretired chain plus the
  /// live generation — what a restart right now would have to replay.
  size_t JournalTailBytes() const;

  /// Threshold for the unbounded-growth warning: when the journal tail
  /// first exceeds `bytes`, the store logs one warning and bumps
  /// store_journal_tail_warnings_total (re-armed when the tail halves).
  /// 0 disables. Default 64 MiB — on by default so a daemon with
  /// maintenance disabled still surfaces the footgun.
  void SetTailWarnBytes(size_t bytes);

  DurableStoreStats stats() const;
  json::Value StatsJson() const;

 private:
  DurableStore() = default;

  /// Re-checks the tail size against the warning threshold and refreshes
  /// the store_journal_tail_bytes gauge. Requires mu_ held.
  void RefreshTailLocked();
  /// Hard-links snapshot.st to its retained name (no-op when no snapshot
  /// exists yet; an identically named leftover is replaced).
  Status PreserveSnapshot(uint64_t sealed_generation);

  std::string dir_;
  RecoveredState recovered_;
  // What recovery found, kept past ReleaseRecovered for StatsJson.
  size_t recovered_records_ = 0;
  bool recovered_snapshot_ = false;
  // Lock order: checkpoint_mu_ before mu_. Append/Sync take only mu_, so
  // they run concurrently with a checkpoint's slow phases.
  mutable std::mutex checkpoint_mu_;
  mutable std::mutex mu_;
  JournalWriter writer_;
  uint64_t generation_ = 0;
  DurableStoreStats stats_;
  // Sealed-but-unretired generations as (generation, valid bytes) — the
  // journal tail beyond the live writer. Guarded by mu_.
  std::vector<std::pair<uint64_t, size_t>> sealed_;
  size_t sealed_bytes_ = 0;
  size_t tail_warn_bytes_ = 64u << 20;
  bool tail_warned_ = false;
  // Appends since the last Sync: the group-commit batch size recorded
  // into store_commit_records at each fsync (src/obs/).
  size_t records_since_sync_ = 0;
};

}  // namespace store
}  // namespace slicetuner

#endif  // SLICETUNER_STORE_STORE_H_
