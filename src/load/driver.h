// LoadDriver: replays a compiled Workload (load/workload.h) against a live
// tuning daemon. N driver threads each own a partition of the sessions and
// one client connection, stepping every session through its op list —
// submit at its arrival offset, poll to terminal, mid-flight cancel,
// append-resubmit — with retry_after_ms backoff on sheds and
// reconnect-with-backoff when the daemon dies under it (the
// kill-and-restart chaos mode).
//
// Correctness accounting distinguishes three session fates:
//   clean      — every op ran exactly as planned; the closing poll snapshot
//                is eligible for the bit-identity oracle (load/oracle.h).
//   tainted    — a cancel (ours) or a restart interruption made the
//                admitted job sequence timing-dependent; the session is
//                excluded from the oracle but still must reach a terminal
//                state (liveness).
//   lost       — the daemon acked an op and then forgot the session
//                (poll = NotFound after ack). The store's sync-before-ack
//                contract makes this impossible; any occurrence is a
//                correctness bug and fails the run.
//
// The driver records loadgen_* client-side metrics into the process-global
// obs registry (docs/OBSERVABILITY.md): the daemon's own registry resets on
// every restart, so run-wide SLOs (p99 poll, p99 submit->done, shed rate)
// must be measured from the client.

#ifndef SLICETUNER_LOAD_DRIVER_H_
#define SLICETUNER_LOAD_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "load/workload.h"

namespace slicetuner {
namespace load {

struct DriverOptions {
  /// Returns the daemon's current port. Called on every (re)connect, so a
  /// daemon that restarts on a new ephemeral port is picked up.
  std::function<int()> port;
  /// Driver threads; each owns sessions round-robin and one connection.
  int threads = 4;
  /// Cadence of terminal-state polling per in-flight session.
  int poll_interval_ms = 15;
  /// Per-call socket timeout.
  int io_timeout_ms = 10000;
  /// Backoff between reconnect attempts while the daemon is down.
  int reconnect_backoff_ms = 50;
  /// Hard cap on the whole replay; sessions still in flight at the
  /// deadline are reported unfinished (all_terminal = false).
  int run_deadline_ms = 15 * 60 * 1000;
};

struct SessionOutcome {
  std::string name;
  std::string scenario;
  /// done | cancelled | failed | unfinished.
  std::string final_state = "unfinished";
  bool tainted = false;
  /// "cancel" | "interrupted" | "driver" (empty when clean).
  std::string taint_reason;
  /// The daemon acknowledged at least one op for this session.
  bool acked_ever = false;
  /// Poll returned NotFound after an acked op: a durability bug.
  bool lost_after_ack = false;
  /// The session was interrupted by a daemon restart and the driver
  /// resubmitted it (restart_recovered evidence when it then finishes).
  bool resubmitted_after_interrupt = false;
  /// The closing `done` poll echoed the trace id the driver minted for the
  /// final submit — the end-to-end propagation check (docs/PROTOCOL.md,
  /// "trace_id"). Only asserted for clean sessions: a restart or cancel
  /// makes which submit last set the session's id timing-dependent.
  bool trace_echoed = false;
  size_t ops_completed = 0;
  /// Last poll snapshot at terminal state (oracle input for clean
  /// sessions).
  json::Value final_poll;
};

struct LoadReport {
  std::vector<SessionOutcome> outcomes;

  uint64_t submits = 0;
  uint64_t submit_attempts = 0;
  uint64_t sheds = 0;
  uint64_t polls = 0;
  uint64_t reconnects = 0;
  uint64_t cancels_sent = 0;
  uint64_t interrupted = 0;
  uint64_t lost_after_ack = 0;
  uint64_t stalled_streams = 0;

  size_t done = 0;
  size_t cancelled = 0;
  size_t failed = 0;
  size_t unfinished = 0;

  double wall_seconds = 0.0;
  bool all_terminal = false;
  /// At least one restart-interrupted session was resubmitted and reached
  /// `done` afterwards (only meaningful on runs with kills).
  bool restart_recovered = false;
  /// Every clean `done` session echoed its client-minted trace id in the
  /// closing poll snapshot (and at least one session was checked).
  bool trace_ids_echoed = false;
  /// Clean `done` sessions the echo check covered.
  size_t trace_checked = 0;

  double shed_rate() const {
    return submit_attempts == 0
               ? 0.0
               : static_cast<double>(sheds) /
                     static_cast<double>(submit_attempts);
  }
  json::Value ToJson() const;
};

class LoadDriver {
 public:
  LoadDriver(const Workload& workload, DriverOptions options);
  ~LoadDriver();  // Out of line: SessionState is incomplete here.

  /// Replays the whole workload; returns when every session is terminal or
  /// the deadline passes. Fails only on setup errors (no port callback);
  /// per-session trouble is reported in the LoadReport.
  Result<LoadReport> Run();

 private:
  struct SessionState;
  struct ThreadConn;

  void ThreadMain(int thread_index, std::vector<SessionState*> mine);
  void StepSession(SessionState* s, ThreadConn* conn, uint64_t now_ms);
  void HandleSubmit(SessionState* s, ThreadConn* conn, uint64_t now_ms);
  void HandleProbe(SessionState* s, ThreadConn* conn, uint64_t now_ms);
  void HandleAwait(SessionState* s, ThreadConn* conn, uint64_t now_ms);
  void ReachTerminal(SessionState* s, const json::Value& snapshot,
                     const std::string& state, uint64_t now_ms);
  void AdvanceOp(SessionState* s, uint64_t now_ms);
  void OpenStalledStream(SessionState* s, ThreadConn* conn);

  uint64_t NowMs() const;

  const Workload& workload_;
  DriverOptions options_;
  uint64_t start_ns_ = 0;
  std::vector<std::unique_ptr<SessionState>> states_;
};

}  // namespace load
}  // namespace slicetuner

#endif  // SLICETUNER_LOAD_DRIVER_H_
