// The perfbench workloads. Each drives a real slicetuner_serve from
// one client process with at most `clients` threads and connections, and
// checks every job the daemon reports done against a single-process
// oracle (oracle.h). Inputs are a pure function of the seed; the daemon
// receives only the generated requests.
//
//   tune-cold       closed loop of fresh curve-based sessions, streamed
//   restart-append  closed loop of append_rows resubmissions to sessions
//                   the daemon restored from a SIGKILLed state directory

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "measure.h"
#include "serve/protocol.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string serve_bin;
  /// Scratch root for state directories, daemon logs and span files.
  std::string work_dir;
  /// Client threads = client connections = nproc.
  int clients = 1;
};

/// One job as the client saw it. Times are steady-clock nanoseconds.
struct JobRecord {
  slicetuner::serve::JobSpec spec;
  uint64_t trace_id = 0;
  /// Inside the measured window (warm-up jobs are still checked).
  bool measured = false;
  /// When the job was due: its first send. A shed and retried job keeps it.
  int64_t due_ns = 0;
  /// Send of the attempt the daemon accepted.
  int64_t send_ns = 0;
  int64_t ack_ns = 0;
  /// First progress frame seen on the stream; 0 when none.
  int64_t first_frame_ns = 0;
  int64_t done_ns = 0;
  int attempts = 0;
  int sheds = 0;
  /// Terminal state reported by the daemon, or "error".
  std::string state;
  std::string error;
  /// Poll snapshot right after the job finished (oracle input).
  slicetuner::json::Value snapshot;
  /// The daemon's span tree of the job (traced runs).
  slicetuner::json::Value tree;
  /// Client spans around each poll of this job (traced runs).
  std::vector<std::pair<int64_t, int64_t>> polls;
};

/// What one measured run of a workload produced.
struct RunResult {
  std::vector<JobRecord> jobs;
  /// Spawn-to-banner seconds of every daemon start in the run.
  std::vector<double> setups;
  int64_t window_start_ns = 0;
  double peak_rss_mb = 0.0;
  /// `metrics` verb registry before and after the load (traced runs).
  slicetuner::json::Value metrics_before;
  slicetuner::json::Value metrics_after;
  /// In-process recovery of the workload's state directory (traced runs;
  /// always for restart-append, whose oracle is that recovery).
  double store_open_ms = 0.0;
  double store_restore_ms = 0.0;
  double records_replayed = 0.0;
  double warm_slices = 0.0;
  double slices = 0.0;
  /// Correctness and transport failures, one line each.
  std::vector<std::string> failures;
};

/// Work a workload needs before its measured runs: the restart-append
/// population, built once per daemon binary and reused.
struct Prepared {
  std::string state_dir;
  std::vector<std::string> sessions;
};

bool IsWorkload(const std::string& name);
slicetuner::Result<Prepared> Prepare(const Options& options);
/// One measured run. `traced` adds trace ids, client spans, the daemon's
/// span trees and `metrics` deltas; `tag` names the run's scratch files.
slicetuner::Result<RunResult> Run(const Options& options,
                                  const Prepared& prepared, bool traced,
                                  const std::string& tag);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
