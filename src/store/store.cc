#include "store/store.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/fs_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/timer.h"
#include "store/fault_injector.h"
#include "store/snapshot.h"

namespace slicetuner {
namespace store {

namespace {

constexpr const char kSnapshotName[] = "snapshot.st";

// Durability-path latencies and sizes (docs/OBSERVABILITY.md, "Store").
struct StoreMetrics {
  obs::Histogram* append_ns =
      obs::MetricsRegistry::Global().histogram("store_append_ns");
  obs::Histogram* fsync_ns =
      obs::MetricsRegistry::Global().histogram("store_fsync_ns");
  obs::Histogram* commit_records =
      obs::MetricsRegistry::Global().histogram("store_commit_records");
  obs::Counter* snapshots =
      obs::MetricsRegistry::Global().counter("store_snapshots_total");
  obs::Gauge* snapshot_bytes =
      obs::MetricsRegistry::Global().gauge("store_snapshot_bytes");
  obs::Gauge* tail_bytes =
      obs::MetricsRegistry::Global().gauge("store_journal_tail_bytes");
  obs::Counter* tail_warnings = obs::MetricsRegistry::Global().counter(
      "store_journal_tail_warnings_total");
};

StoreMetrics& Metrics() {
  static StoreMetrics& metrics = *new StoreMetrics();
  return metrics;
}

std::string JournalPath(const std::string& dir, uint64_t generation) {
  return dir + "/" + StrFormat("journal-%06llu.wal",
                               static_cast<unsigned long long>(generation));
}

std::string RetainedSnapshotPath(const std::string& dir, uint64_t generation) {
  return dir + "/" + StrFormat("snapshot-%06llu.st",
                               static_cast<unsigned long long>(generation));
}

// The sorted generation numbers NNNNNN of the <prefix>NNNNNN<suffix> files
// in `dir`: journal generations and retained snapshots.
Result<std::vector<uint64_t>> ListGenerations(const std::string& dir,
                                              const std::string& prefix,
                                              const std::string& suffix) {
  ST_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                      ListDirFiles(dir));
  constexpr size_t kDigits = 6;
  std::vector<uint64_t> generations;
  for (const std::string& name : names) {
    if (name.size() != prefix.size() + kDigits + suffix.size() ||
        name.rfind(prefix, 0) != 0 ||
        name.substr(prefix.size() + kDigits) != suffix) {
      continue;
    }
    uint64_t gen = 0;
    bool digits = true;
    for (size_t i = prefix.size(); i < prefix.size() + kDigits; ++i) {
      digits = digits && name[i] >= '0' && name[i] <= '9';
      gen = gen * 10 + static_cast<uint64_t>(name[i] - '0');
    }
    if (digits && gen > 0) generations.push_back(gen);
  }
  std::sort(generations.begin(), generations.end());
  return generations;
}

// Shared by ReadStateDir and DurableStore::Open so Open does not have to
// list the directory twice; `chain` receives the sorted generations with
// their valid byte counts.
Result<RecoveredState> ReadStateDirImpl(
    const std::string& dir,
    std::vector<std::pair<uint64_t, size_t>>* chain) {
  RecoveredState state;
  Result<json::Value> snapshot = ReadSnapshotFile(dir + "/" + kSnapshotName);
  if (snapshot.ok()) {
    state.snapshot = std::move(*snapshot);
  } else if (snapshot.status().code() != StatusCode::kNotFound) {
    return snapshot.status();
  }

  ST_ASSIGN_OR_RETURN(const std::vector<uint64_t> generations,
                      ListGenerations(dir, "journal-", ".wal"));
  for (size_t i = 0; i < generations.size(); ++i) {
    const std::string path = JournalPath(dir, generations[i]);
    ST_ASSIGN_OR_RETURN(JournalReadResult read, ReadJournal(path));
    if (read.tail_truncated && i + 1 < generations.size()) {
      // Only the newest generation can legitimately die mid-append: older
      // ones were rotated away after a clean Sync.
      return Status::Internal("journal " + path +
                              " has a torn tail but newer generations "
                              "follow; state directory is corrupted");
    }
    for (json::Value& record : read.records) {
      state.tail.push_back(std::move(record));
    }
    state.tail_truncated = read.tail_truncated;
    state.bytes_discarded += read.bytes_discarded;
    state.journal_bytes += read.valid_bytes;
    chain->emplace_back(generations[i], read.valid_bytes);
  }
  return state;
}

}  // namespace

Result<RecoveredState> ReadStateDir(const std::string& dir) {
  std::vector<std::pair<uint64_t, size_t>> chain;
  return ReadStateDirImpl(dir, &chain);
}

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    const std::string& dir) {
  ST_RETURN_NOT_OK(MkDirRecursive(dir));
  std::unique_ptr<DurableStore> store(new DurableStore());
  store->dir_ = dir;
  std::vector<std::pair<uint64_t, size_t>> chain;
  ST_ASSIGN_OR_RETURN(store->recovered_, ReadStateDirImpl(dir, &chain));
  store->recovered_records_ = store->recovered_.tail.size();
  store->recovered_snapshot_ = !store->recovered_.snapshot.is_null();
  store->generation_ = chain.empty() ? 1 : chain.back().first + 1;
  ST_ASSIGN_OR_RETURN(store->writer_,
                      JournalWriter::Open(JournalPath(dir,
                                                      store->generation_)));
  store->stats_.journal_generation = store->generation_;
  // Recovered generations are sealed: appends never touch them, so they
  // sit in the tail until a checkpoint folds them away.
  store->sealed_ = std::move(chain);
  for (const auto& gen : store->sealed_) {
    store->sealed_bytes_ += gen.second;
  }
  store->stats_.journal_tail_bytes = store->sealed_bytes_;
  return store;
}

DurableStore::~DurableStore() { (void)writer_.Close(); }

void DurableStore::ReleaseRecovered() {
  recovered_.snapshot = json::Value();
  std::vector<json::Value>().swap(recovered_.tail);
}

Result<RecoveredState> DurableStore::SyncAndRead() {
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  ST_RETURN_NOT_OK(Sync());
  return ReadStateDir(dir_);
}

Status DurableStore::Append(const json::Value& record) {
  std::lock_guard<std::mutex> lock(mu_);
  obs::ScopedTimer timer(Metrics().append_ns);
  ST_RETURN_NOT_OK(writer_.Append(record));
  ++stats_.records_appended;
  ++records_since_sync_;
  obs::Recorder::Global().RecordHere(
      obs::EventKind::kStoreAppend,
      static_cast<int64_t>(records_since_sync_));
  RefreshTailLocked();
  return Status::OK();
}

void DurableStore::RefreshTailLocked() {
  const size_t tail = sealed_bytes_ + writer_.valid_length();
  stats_.journal_tail_bytes = tail;
  Metrics().tail_bytes->Set(static_cast<double>(tail));
  if (tail_warn_bytes_ == 0) return;
  if (tail >= tail_warn_bytes_) {
    if (!tail_warned_) {
      tail_warned_ = true;
      ++stats_.tail_warnings;
      Metrics().tail_warnings->Add();
      ST_LOG(Warning) << "durable store " << dir_
                      << ": un-snapshotted journal tail is " << tail
                      << " bytes (threshold " << tail_warn_bytes_
                      << "); restart replay grows unbounded until a "
                         "checkpoint runs — enable maintenance "
                         "(--snapshot-every-jobs/-bytes) or take a snapshot";
    }
  } else if (tail < tail_warn_bytes_ / 2) {
    // Hysteresis: re-arm only after a checkpoint has meaningfully shrunk
    // the tail, so a tail hovering at the threshold warns once, not per
    // append.
    tail_warned_ = false;
  }
}

size_t DurableStore::JournalTailBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_bytes_ + writer_.valid_length();
}

void DurableStore::SetTailWarnBytes(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  tail_warn_bytes_ = bytes;
  tail_warned_ = false;
}

Status DurableStore::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  {
    obs::ScopedTimer timer(Metrics().fsync_ns);
    ST_RETURN_NOT_OK(writer_.Sync());
  }
  ++stats_.syncs;
  Metrics().commit_records->Record(records_since_sync_);
  obs::Recorder::Global().RecordHere(
      obs::EventKind::kStoreSync,
      static_cast<int64_t>(records_since_sync_));
  records_since_sync_ = 0;
  return Status::OK();
}

Status DurableStore::PreserveSnapshot(uint64_t sealed_generation) {
  const std::string current = dir_ + "/" + kSnapshotName;
  const std::string retained = RetainedSnapshotPath(dir_, sealed_generation);
  if (::link(current.c_str(), retained.c_str()) == 0) return Status::OK();
  // First checkpoint in a fresh directory: nothing to preserve.
  if (errno == ENOENT) return Status::OK();
  if (errno == EEXIST) {
    // Leftover of an interrupted earlier attempt; replace it.
    ST_RETURN_NOT_OK(RemoveFile(retained));
    if (::link(current.c_str(), retained.c_str()) == 0) return Status::OK();
  }
  return Status::Internal("cannot preserve " + current + " as " + retained +
                          ": " + std::strerror(errno));
}

Result<CheckpointReport> DurableStore::CheckpointOnline(
    const std::function<json::Value()>& provider, int retain_snapshots) {
  FaultInjector& injector = FaultInjector::Global();
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  CheckpointReport report;

  // Phase 1 — seal + rotate: the only phase that blocks appenders, and it
  // is O(1). On any failure the store re-arms a live writer before
  // returning, so serving continues and the next tick retries.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ST_RETURN_NOT_OK(injector.Reached(fault::kMaintSeal));
    const uint64_t sealing = generation_;
    const size_t sealing_bytes = writer_.valid_length();
    Status rotate = writer_.Close();
    if (rotate.ok()) rotate = injector.Reached(fault::kMaintRotate);
    if (rotate.ok()) {
      Result<JournalWriter> next =
          JournalWriter::Open(JournalPath(dir_, generation_ + 1));
      if (next.ok()) {
        writer_ = std::move(*next);
        sealed_.emplace_back(sealing, sealing_bytes);
        sealed_bytes_ += sealing_bytes;
        ++generation_;
        stats_.journal_generation = generation_;
      } else {
        rotate = next.status();
      }
    }
    if (!rotate.ok()) {
      // Mid-rotate failure: re-open the just-sealed generation (still the
      // newest, so continuing it is legal) to keep appends flowing.
      Result<JournalWriter> reopened =
          JournalWriter::Open(JournalPath(dir_, sealing));
      if (reopened.ok()) writer_ = std::move(*reopened);
      return rotate;
    }
    report.sealed_generation = sealing;
  }

  // Phase 2 — fold: capture a document covering at least the sealed chain.
  // No store lock is held: the provider may take serving-layer locks, and
  // writers keep appending to the fresh generation. Covering "too much" is
  // safe — replay skips covered records by per-session sequence number.
  ST_RETURN_NOT_OK(injector.Reached(fault::kMaintFold));
  const json::Value doc = provider();

  // Phase 3 — publish: keep the checkpoint being superseded as a retained
  // rollback artifact (hard link — snapshot.st never stops existing), then
  // atomically replace snapshot.st.
  ST_RETURN_NOT_OK(injector.Reached(fault::kMaintPreserve));
  ST_RETURN_NOT_OK(PreserveSnapshot(report.sealed_generation));
  size_t snapshot_bytes = 0;
  ST_RETURN_NOT_OK(WriteSnapshotFile(dir_ + "/" + kSnapshotName, doc,
                                     &snapshot_bytes));
  report.snapshot_bytes = snapshot_bytes;
  ST_RETURN_NOT_OK(injector.Reached(fault::kMaintPostSnapshotPreRetire));

  // Phase 4 — retire the generations the new checkpoint covers, oldest
  // first: a crash mid-loop leaves a contiguous chain suffix, which
  // recovery replays (and skips) like any other tail.
  ST_ASSIGN_OR_RETURN(const std::vector<uint64_t> generations,
                      ListGenerations(dir_, "journal-", ".wal"));
  for (const uint64_t gen : generations) {
    if (gen > report.sealed_generation) continue;
    ST_RETURN_NOT_OK(injector.Reached(fault::kMaintRetireJournal));
    ST_RETURN_NOT_OK(RemoveFile(JournalPath(dir_, gen)));
    ++report.journals_retired;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.journals_retired;
    for (auto it = sealed_.begin(); it != sealed_.end(); ++it) {
      if (it->first != gen) continue;
      sealed_bytes_ -= it->second;
      sealed_.erase(it);
      break;
    }
  }

  // Phase 5 — retire superseded snapshots beyond the retention count,
  // oldest first. Recovery never reads these, so any partial outcome is
  // benign; they exist for operators to roll back to.
  ST_ASSIGN_OR_RETURN(const std::vector<uint64_t> retained,
                      ListGenerations(dir_, "snapshot-", ".st"));
  const size_t keep =
      retain_snapshots < 0 ? 0 : static_cast<size_t>(retain_snapshots);
  for (size_t i = 0; i + keep < retained.size(); ++i) {
    ST_RETURN_NOT_OK(injector.Reached(fault::kMaintRetireSnapshot));
    ST_RETURN_NOT_OK(RemoveFile(RetainedSnapshotPath(dir_, retained[i])));
    ++report.snapshots_retired;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.snapshots_retired;
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.snapshots_written;
  Metrics().snapshots->Add();
  Metrics().snapshot_bytes->Set(static_cast<double>(snapshot_bytes));
  RefreshTailLocked();
  return report;
}

DurableStoreStats DurableStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

json::Value DurableStore::StatsJson() const {
  const DurableStoreStats s = stats();
  json::Value out = json::Value::Object();
  out.Set("dir", dir_);
  out.Set("records_appended", s.records_appended);
  out.Set("syncs", s.syncs);
  out.Set("snapshots_written", s.snapshots_written);
  out.Set("journal_generation", static_cast<long long>(s.journal_generation));
  out.Set("journals_retired", s.journals_retired);
  out.Set("snapshots_retired", s.snapshots_retired);
  out.Set("journal_tail_bytes", s.journal_tail_bytes);
  out.Set("tail_warnings", s.tail_warnings);
  out.Set("recovered_records", recovered_records_);
  out.Set("recovered_snapshot", recovered_snapshot_);
  out.Set("tail_truncated", recovered_.tail_truncated);
  return out;
}

}  // namespace store
}  // namespace slicetuner
