// ExperimentRunner: concurrent fan-out of whole experiment configurations.
//
// The paper's evaluation (and any tuning service built on it) runs many
// SliceTuner configurations — lambda sweeps, budget sweeps, baseline
// comparisons — that are completely independent of one another. The runner
// gives them a session API: Submit() queues a named (config, method) pair,
// RunAll() executes every queued session concurrently through the shared
// pool's capped ParallelFor (common/parallel_for.h) and returns results in
// submission order, streaming per-session state transitions (queued ->
// running -> succeeded/failed) to an optional observer as they happen.
//
// Sessions need not be paper experiments: SubmitTask() queues any
// Status-returning callable under the same scheduling, streaming, and
// cancellation machinery (the simulation subsystem fans scenario x method
// grids out this way). With cancel_on_failure set, the first failed session
// cancels every session that has not started yet; those resolve as
// kCancelled. A session that throws resolves in-band as kFailed (Internal).
//
// Determinism: each session's outcome depends only on its own config (seed
// included), never on scheduling, so a sweep run with 1 or N concurrent
// sessions produces identical numbers. Sessions nest freely on the pool:
// trial fan-out and curve estimation inside a session use the same
// caller-participating ParallelFor, so workers never deadlock.

#ifndef SLICETUNER_ENGINE_EXPERIMENT_RUNNER_H_
#define SLICETUNER_ENGINE_EXPERIMENT_RUNNER_H_

#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/experiment.h"

namespace slicetuner {
namespace engine {

/// One queued experiment: a named (config, method) pair.
struct SessionSpec {
  std::string name;
  ExperimentConfig config;
  Method method = Method::kModerate;
};

enum class SessionState {
  kQueued,
  kRunning,
  kSucceeded,
  kFailed,
  /// Never started: an earlier session failed under cancel_on_failure (or
  /// the whole run was cancelled).
  kCancelled,
};

const char* SessionStateName(SessionState state);

/// Streamed to the observer on every session state transition. Events for
/// different sessions interleave; events for one session are ordered.
struct SessionEvent {
  size_t session_id = 0;
  std::string name;
  SessionState state = SessionState::kQueued;
  /// Wall time of the session so far (terminal states: total runtime).
  double wall_seconds = 0.0;
  /// Error text for kFailed.
  std::string detail;
};

struct SessionResult {
  std::string name;
  Status status;
  MethodOutcome outcome;  // valid when status.ok() and the session was typed
  double wall_seconds = 0.0;
};

class ExperimentRunner {
 public:
  struct Options {
    /// Concurrent sessions: 1 = sequential, 0 = one per pool lane.
    int max_concurrent_sessions = 0;
    /// Observer for streamed SessionEvents; invocations are serialized.
    std::function<void(const SessionEvent&)> on_event;
    /// When true, the first failed session cancels every queued session
    /// that has not started yet (their results resolve as Cancelled).
    bool cancel_on_failure = false;
  };

  ExperimentRunner() : ExperimentRunner(Options()) {}
  explicit ExperimentRunner(Options options);

  /// Queues a session; returns its id (index into RunAll()'s result).
  size_t Submit(SessionSpec spec);
  size_t Submit(std::string name, ExperimentConfig config, Method method);

  /// Queues an arbitrary unit of work as a session. The callable runs on a
  /// pool lane exactly like a typed session; its SessionResult carries the
  /// returned Status and a default MethodOutcome.
  size_t SubmitTask(std::string name, std::function<Status()> fn);

  size_t num_sessions() const;

  /// Runs every queued session and blocks until all finish. Results are in
  /// submission order; per-session failures are reported in-band (the run
  /// itself only fails fast on internal errors). The queue stays intact, so
  /// RunAll() can be called again (e.g. after tweaking nothing, to measure
  /// variance across identical re-runs — results will be identical).
  ///
  /// Submission is thread-safe, including concurrently with RunAll: the run
  /// snapshots the queue at entry, so a session submitted while a run is in
  /// flight is NOT picked up by that run — it stays queued for the next
  /// RunAll (whose results then cover every session submitted so far).
  /// cancel_on_failure only cancels sessions that have not started; a
  /// session already running when a sibling fails always runs to completion
  /// and reports its own result. Runs of one runner must not overlap.
  std::vector<SessionResult> RunAll();

 private:
  /// Internal unified form of typed sessions and generic tasks.
  struct Job {
    std::string name;
    std::function<Result<MethodOutcome>()> run;
  };

  size_t SubmitJob(Job job);
  void Emit(const SessionEvent& event);
  /// One ParallelFor body of RunAll: runs session `id` into `result`.
  void RunSession(size_t id, const Job& job, SessionResult* result);

  Options options_;
  std::vector<Job> jobs_;
  mutable std::mutex jobs_mu_;
  // Serializes observer calls and guards cancelled_. A failing session sets
  // cancelled_ before it emits kFailed, so anything that event wakes —
  // a sibling finishing and freeing its lane — already sees it.
  std::mutex mu_;
  bool cancelled_ = false;
};

}  // namespace engine
}  // namespace slicetuner

#endif  // SLICETUNER_ENGINE_EXPERIMENT_RUNNER_H_
