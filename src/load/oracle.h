// Oracle equivalence check: for every *clean* session the driver reports
// done (no cancel, no restart interruption, no driver error), replay its
// exact op sequence — creation submit plus every append resubmission —
// through an in-process TuningSession and demand the closing snapshot
// match the daemon's final poll bit-for-bit: rows, rounds_completed,
// jobs_run, model_trainings, and every fitted curve coefficient as exact
// doubles.
//
// Why exact equality is achievable across processes: a session's outcome
// is a pure function of (creation JobSpec, admitted job sequence) — the
// data world is re-derived deterministically, curve estimation is
// thread-count-invariant, and the JSON writer round-trips doubles
// losslessly — so a daemon that sheds, restarts warm, or interleaves a
// thousand other sessions must still land on the same coefficients as
// this single-threaded replay. Tainted sessions are excluded because their
// *admitted* job sequence (not their math) is timing-dependent.

#ifndef SLICETUNER_LOAD_ORACLE_H_
#define SLICETUNER_LOAD_ORACLE_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "load/driver.h"
#include "load/workload.h"

namespace slicetuner {
namespace load {

struct OracleReport {
  /// Clean done sessions replayed and compared.
  size_t checked = 0;
  /// Sessions excluded (tainted, unfinished, cancelled, or failed).
  size_t skipped = 0;
  size_t mismatched = 0;
  /// Every skipped session was tainted by a cancel or a restart
  /// interruption — the only fates whose admitted job sequence depends on
  /// timing — so every other session was checked.
  bool covers_clean = true;
  /// One line per mismatching session (first differing field).
  std::vector<std::string> mismatches;

  bool all_match() const { return mismatched == 0; }
  json::Value ToJson() const;
};

/// Replays every eligible session in `report` against the plans in
/// `workload` (in parallel; replay is per-session independent) and
/// compares closing snapshots.
OracleReport VerifyAgainstOracle(const Workload& workload,
                                 const LoadReport& report);

}  // namespace load
}  // namespace slicetuner

#endif  // SLICETUNER_LOAD_ORACLE_H_
