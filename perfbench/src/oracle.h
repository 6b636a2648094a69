// Correctness oracles of the perfbench client. Every job the daemon
// reports done is checked against a single-process computation of the
// same closing estimates:
//
//   * fresh sessions (tune-cold): an in-process TuningSession
//     replays the creation job plus every append resubmission;
//   * restored sessions (restart-append): an in-process DurableStore::Open
//     + SessionManager::RestoreFromState of a copy of the pre-restart state
//     directory, followed by the same appends. That oracle takes the same
//     restore path as the daemon, so it holds even where a restart changes
//     the answer a never-restarted process would give.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "store/store.h"

namespace perfbench {

/// First closing-estimate field on which a daemon poll and an oracle
/// snapshot differ: rows, rounds_completed, jobs_run, or any curves.b /
/// curves.a coefficient compared as an exact double. Empty when they agree.
std::string CompareClosing(const slicetuner::json::Value& daemon,
                           const slicetuner::json::Value& oracle);

/// Runs `jobs` (creation submit first, then resubmissions) through one
/// in-process TuningSession and returns the snapshot after each job.
slicetuner::Result<std::vector<slicetuner::json::Value>> ReplayFresh(
    const std::vector<slicetuner::serve::JobSpec>& jobs);

/// An in-process recovery of a state directory: the same Open and
/// RestoreFromState calls the daemon makes before it listens, timed.
struct Recovery {
  std::unique_ptr<slicetuner::store::DurableStore> store;
  std::unique_ptr<slicetuner::serve::SessionManager> sessions;
  slicetuner::serve::RestoreReport report;
  double open_ms = 0.0;
  double restore_ms = 0.0;
  /// Slices held by the restored sessions (the denominator of warm_slices).
  size_t slices = 0;
};

/// Recovers `dir` in-process. The directory is written to (Open starts a
/// fresh journal generation), so pass a copy.
slicetuner::Result<Recovery> Recover(const std::string& dir);

/// Resumes the recovered session `job.session` with `job`, runs it, and
/// returns its snapshot.
slicetuner::Result<slicetuner::json::Value> RunAppend(
    Recovery* recovery, const slicetuner::serve::JobSpec& job);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
