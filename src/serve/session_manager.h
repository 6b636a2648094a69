// Session lifecycle for the tuning service. A TuningSession owns a
// long-lived SliceTuner whose curve-estimation engine persists across jobs:
// the first submit runs cold, but a resubmission that appends rows to one
// slice re-enters estimation with every other slice's curve still cached —
// the engine's partial refit — so maintaining a session is incremental in
// the size of the change, not the size of the data (the FO+MOD-style
// maintenance-under-updates contract of the ROADMAP).
//
// Threading: the server's poll loop reads snapshots/frames and requests
// cancellation while a shared-pool worker executes RunJob; all session
// state is guarded by one per-session mutex (the tuner itself is only
// touched by RunJob, which the phase machine keeps single-flight).
//
// Durability (src/store/, docs/STATE.md): a session's durable state is one
// SessionState that changes only through Apply(state, event). Live sessions
// apply each lifecycle event and journal it; recovery folds snapshot
// entries and journal tails through the same Apply. Training rows are
// never persisted — the data world is a pure function of the creation
// JobSpec and acquire sequence (sim::ScriptedSource determinism) — and each
// `finish` carries the curve-cache entries its job changed (the FO+MOD
// maintenance-under-updates contract), so a restored session resumes warm:
// an append_rows resubmission refits only the touched slices, with
// training counts and closing estimates identical to a never-restarted
// session.

#ifndef SLICETUNER_SERVE_SESSION_MANAGER_H_
#define SLICETUNER_SERVE_SESSION_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "core/slice_tuner.h"
#include "serve/protocol.h"
#include "sim/scripted_source.h"
#include "store/store.h"

namespace slicetuner {
namespace serve {

/// queued -> running -> done | cancelled | failed; terminal sessions can be
/// resumed (back to queued) by a follow-up submit_job with the same key.
enum class SessionPhase {
  kQueued,
  kRunning,
  kDone,
  kCancelled,
  kFailed,
};

const char* SessionPhaseName(SessionPhase phase);

/// One appended batch of training rows: enough to re-derive the exact rows
/// from the session's deterministic data source on recovery.
struct AcquireRecord {
  int round = 0;
  int slice = 0;
  long long count = 0;
};

/// One curve-cache entry: `slice`'s fitted curve and the content hash of
/// the rows it was fitted on (engine::HashSliceContent).
struct CachedCurve {
  int slice = 0;
  uint64_t hash = 0;
  SliceCurveEstimate estimate;
};

/// Everything a restart must bring back of one session, and nothing else:
/// mid-job progress (rounds and trainings so far, frames, the span tree)
/// stays with the live TuningSession.
struct SessionState {
  std::string name;
  uint64_t id = 0;  // 0 until a create event
  uint64_t seq = 0;  // sequence number of the next event
  SessionPhase phase = SessionPhase::kQueued;  // never kRunning
  std::string error;
  uint64_t trace_id = 0;  // submit that ran the last finished job
  JobSpec job;  // the job the data world is (or will be) built from
  bool world_built = false;
  int next_round = 0;  // acquisition round index of the next job
  std::vector<AcquireRecord> acquires;
  int jobs_run = 0;
  int rounds_completed = 0;
  long long total_trainings = 0;
  long long last_job_trainings = 0;
  double last_job_wall_seconds = 0.0;
  std::vector<double> curve_b;  // closing curves of the last job
  std::vector<double> curve_a;
  // The curve engine's cache at the last job boundary, by slice.
  std::optional<uint64_t> cache_fingerprint;
  std::map<int, CachedCurve> cache;
  bool dropped = false;

  /// The snapshot entry (docs/STATE.md, "Snapshot format").
  json::Value ToJson() const;
  static Result<SessionState> FromJson(const json::Value& entry);
};

/// The one state-transition function: advances `state` by one journal
/// event (docs/STATE.md, "Session event payloads"). Live sessions commit
/// every event through it; recovery folds journal tails through it.
Status Apply(SessionState* state, const json::Value& event);

class TuningSession {
 public:
  /// `store` (optional) makes the session durable: the constructor journals
  /// the create event, and every subsequent lifecycle change appends to the
  /// journal. `job` must already be resolved (non-zero num_slices).
  explicit TuningSession(uint64_t id, JobSpec job,
                         store::DurableStore* store = nullptr);

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Executes the pending job: builds the data world on first run (or
  /// appends the resubmission's rows), then runs `rounds` estimate ->
  /// optimize -> acquire rounds, appending one progress frame per round.
  /// Cancellation is honored at round boundaries. Returns the job's status
  /// and moves the phase to done/cancelled/failed. `on_resolved`, when set,
  /// runs under the session lock just before that terminal phase publishes,
  /// so whatever it records is visible to every WaitTerminal it wakes.
  Status RunJob(const std::function<void()>& on_resolved = nullptr);

  /// Installs the trace id of the submit that armed the pending job. The
  /// server calls this right after Register/Resume, before admission hands
  /// the session to a dispatcher, so RunJob always sees the id that minted
  /// it (docs/OBSERVABILITY.md, "Request tracing").
  void SetTraceId(uint64_t trace_id) {
    trace_id_.store(trace_id, std::memory_order_relaxed);
  }
  uint64_t trace_id() const {
    return trace_id_.load(std::memory_order_relaxed);
  }

  /// Span tree of the last completed job: {"name":"job","trace_id":...,
  /// "total_ms":X,"rounds":[<round span>...]}. Attached to the done frame
  /// and returned by poll. Null until a job runs, and after a job that was
  /// cancelled before it started.
  json::Value TraceTree() const;

  /// Flags the session for cancellation: a queued session resolves
  /// cancelled without running; a running one stops at the next round
  /// boundary.
  void RequestCancel();
  bool cancel_requested() const {
    return cancel_requested_.load(std::memory_order_relaxed);
  }

  /// Re-arms a terminal session with a follow-up job (phase back to
  /// queued) and drops the previous job's progress frames. Fails while the
  /// session is queued or running.
  Status Resume(JobSpec job);

  SessionPhase phase() const;
  bool Terminal() const;
  /// Blocks until the session reaches a terminal phase (false on timeout).
  bool WaitTerminal(int timeout_ms) const;

  /// Number of progress frames emitted so far (monotone within a job;
  /// frames survive until the next job re-arms the session).
  size_t FrameCount() const;
  json::Value FrameAt(size_t index) const;

  /// Poll payload: phase, per-job counters, and the curve engine's cache
  /// statistics (partial_refits / served_from_cache expose the incremental
  /// path to clients and tests).
  json::Value Snapshot() const;

  /// Terminal status of the last job (OK while none finished).
  Status last_status() const;
  /// Model trainings performed by the last completed job.
  long long last_job_trainings() const;
  /// Wall seconds of the last completed job.
  double last_job_wall_seconds() const;

  /// Journals the drop event for a session Register created but admission
  /// rejected (recovery then knows the name never became visible).
  void LogDropped();

  /// Durable form of the session for a store snapshot: its SessionState
  /// (docs/STATE.md "session object"). Progress frames are deliberately
  /// not durable; streams do not survive a restart.
  json::Value DurableState() const;

  /// {"data_hash", "curve_cache"}: the content hash of the training rows and
  /// the engine's live cache, so tests can compare a restored session with
  /// a live one. Null while a job runs or before the data world exists.
  json::Value RestingState() const;

  /// Rebuilds a session from its folded state: re-derives the training
  /// rows from the world job + acquire log, installs the curve cache
  /// through the engine's hash-validated RestoreState, and restores
  /// counters and phase. A session that was queued or running when the
  /// state was captured comes back cancelled ("interrupted by restart")
  /// and can be resumed by the next submit. `warm_slices` (out, optional)
  /// reports how many slices restored with a hot curve cache.
  static Result<std::unique_ptr<TuningSession>> Restore(
      SessionState state, store::DurableStore* store,
      size_t* warm_slices = nullptr);

 private:
  Status ExecuteJob(const JobSpec& job);
  Status RunRounds(const JobSpec& job);
  /// Builds the session's data world from its creation job (cold path of
  /// ExecuteJob and the recovery replay). Sets source_/tuner_/rows_.
  Status BuildWorld(const JobSpec& job);
  /// The one live transition: stamps the session/id/seq envelope on
  /// `event`, applies it to state_, and journals it when a store is
  /// attached. Requires mu_ held.
  void CommitLocked(json::Value event);
  /// running while a job executes, else the state's phase. Requires mu_.
  SessionPhase PhaseLocked() const;

  const uint64_t id_;
  const std::string name_;
  store::DurableStore* store_ = nullptr;  // not owned; may be null

  mutable std::mutex mu_;
  mutable std::condition_variable phase_cv_;
  SessionState state_;  // guarded by mu_; changed only by CommitLocked
  JobSpec pending_job_;
  Status last_status_;
  std::vector<json::Value> frames_;
  std::atomic<bool> cancel_requested_{false};
  // When the job was submitted (creation or Resume): the anchor for the
  // serve_queue_wait_ns / serve_submit_to_done_ns histograms (src/obs/).
  std::atomic<uint64_t> enqueued_ns_{0};
  // Trace id of the submit that armed the pending job (0 = untraced).
  std::atomic<uint64_t> trace_id_{0};
  // Round-span JSONs accumulated by the in-flight job (RunJob thread only
  // writes; appended under mu_), folded into last_trace_tree_ at finish.
  std::vector<json::Value> job_round_spans_;
  // Span tree of the last completed job (guarded by mu_).
  json::Value last_trace_tree_;

  // Mid-job progress (guarded by mu_; written by the RunJob thread). The
  // job's finish event folds it into state_; the next job resets it.
  struct Progress {
    bool running = false;
    int next_round = 0;  // monotone across jobs: keeps draws fresh
    int rounds = 0;
    long long trainings = 0;
    std::vector<double> curve_b;  // closing curves, once estimated
    std::vector<double> curve_a;
    uint64_t closing_ns = 0;  // wall time of the closing estimate
  };
  Progress job_;
  long long rows_ = 0;  // the tuner's training rows (guarded by mu_)

  // Long-lived tuning state (only RunJob touches these; single-flight by
  // phase machine).
  std::unique_ptr<SliceTuner> tuner_;
  std::unique_ptr<sim::ScriptedSource> source_;

  // Copy of the curve engine's counters taken at job boundaries. Snapshot
  // reads this instead of engine.stats() so a poll never waits on the
  // engine lock a running estimation holds.
  engine::CurveEngineStats cache_stats_;
  bool has_cache_stats_ = false;
};

struct SessionManagerStats {
  size_t created = 0;
  size_t resumed = 0;
  size_t completed = 0;
  size_t failed = 0;
  size_t cancelled = 0;
  size_t restored = 0;
};

/// What a recovery pass did (surfaced through the restore verb and the
/// daemon's startup log line).
struct RestoreReport {
  size_t sessions_restored = 0;
  /// Sessions skipped because a live session already owns the name (only
  /// possible via the runtime `restore` verb; startup recovery runs on an
  /// empty registry).
  size_t sessions_skipped = 0;
  /// Incarnations that were never admitted: their journal history ends in
  /// a drop event, or a newer incarnation of the name recreated them.
  size_t sessions_dropped = 0;
  /// Claimed sessions whose fold or rebuild failed (undecodable entry or
  /// record, spec or cache validation). Logged, left unregistered, and
  /// their names released for fresh creates.
  size_t sessions_failed = 0;
  /// Slices that came back with a hot curve cache across all sessions.
  size_t warm_slices = 0;
  size_t journal_records_applied = 0;
  bool tail_truncated = false;

  json::Value ToJson() const;
};

class SessionManager {
 public:
  /// Registers a submit_job: creates a fresh session, or resumes a terminal
  /// one when the key is already known. Fails with AlreadyExists when the
  /// session is still queued/running, and with ResourceExhausted (a
  /// retryable shed) while a concurrent RestoreFromState is rebuilding the
  /// name — store-aware admission: a submit must neither race the rebuild
  /// nor create a duplicate the restore would then skip. The returned
  /// pointer stays valid for the manager's lifetime — except a freshly
  /// `created` session the caller immediately hands back to Drop().
  /// `created` (optional) reports whether the call created the session
  /// rather than resuming one.
  Result<TuningSession*> Register(const JobSpec& job,
                                  bool* created = nullptr);

  /// Erases a session that Register just created but that was never
  /// admitted (so no other thread or connection can reference it). Keeps
  /// shed submissions with fresh session names from growing the registry
  /// without bound. No-op for unknown ids.
  void Drop(uint64_t id);

  /// nullptr when unknown.
  TuningSession* Find(const std::string& name) const;
  TuningSession* FindById(uint64_t id) const;

  Status Cancel(const std::string& name);

  /// Sessions currently queued or running.
  size_t active_count() const;
  size_t session_count() const;

  /// Records a session's terminal outcome (called by the dispatcher).
  void RecordOutcome(const Status& status);

  /// Invoked (outside the manager lock) after every RecordOutcome — the
  /// finished-job notification store maintenance keys its snapshot cadence
  /// off (src/store/maintenance.h). Set before serving traffic.
  void SetJobFinishedCallback(std::function<void()> callback);

  SessionManagerStats stats() const;
  json::Value StatsJson() const;

  /// Makes future sessions durable: every Register/Drop and session
  /// lifecycle event journals through `store` (not owned). Attach before
  /// serving traffic; existing sessions are not retrofitted.
  void AttachStore(store::DurableStore* store);

  /// Materializes sessions from recovered state: folds each snapshot
  /// entry and the journal tail through Apply (per-session sequence
  /// numbers decide which tail records the snapshot already covers;
  /// records of an older incarnation of a name are skipped), then rebuilds
  /// each surviving session via TuningSession::Restore — in parallel on
  /// the shared pool — and registers them serially in fold order, so the
  /// result does not depend on the thread count. With
  /// `skip_existing`, names already registered are left untouched (the
  /// runtime `restore` verb); startup recovery passes false on an empty
  /// registry. Restored sessions journal future events through `store`.
  Result<RestoreReport> RestoreFromState(const store::RecoveredState& state,
                                         store::DurableStore* store,
                                         bool skip_existing);

  /// The store snapshot document covering every registered session (plus
  /// the id allocator): the provider DurableStore::CheckpointOnline folds.
  json::Value DurableSnapshot() const;

  /// Test hook: invoked by RestoreFromState after claiming the names it
  /// will materialize and before rebuilding them — lets a test hold the
  /// restore open to exercise the mid-restore shed path in Register.
  void SetRestoreHookForTesting(std::function<void()> hook);

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TuningSession>> sessions_;
  uint64_t next_id_ = 1;
  SessionManagerStats stats_;
  store::DurableStore* store_ = nullptr;  // not owned; may be null
  // Names a RestoreFromState pass has claimed but not yet materialized;
  // Register sheds submits for them (and a concurrent restore pass leaves
  // them to their owner).
  std::unordered_set<std::string> restoring_names_;
  std::function<void()> restore_hook_;
  std::function<void()> job_finished_callback_;
};

}  // namespace serve
}  // namespace slicetuner

#endif  // SLICETUNER_SERVE_SESSION_MANAGER_H_
