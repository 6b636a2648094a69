// TuningServer: the long-running service wrapping the whole stack. N epoll
// worker threads own the TCP side (127.0.0.1 only, line-delimited JSON,
// src/serve/protocol.h): every worker watches the shared listen fd
// (EPOLLEXCLUSIVE) and fully owns each connection it accepts — framing,
// request handling, stream flushing, and teardown all happen on that one
// thread, so connection state needs no locks and fds never migrate between
// threads (src/serve/event_loop.h, connection.h). One dispatcher thread
// per admission shard pops one session per free in-flight slot (at most
// max_concurrent_sessions) and submits its RunJob straight onto the shared
// thread pool; a session's id pins it to one shard, so a hot session can
// only ever fill its own shard's slots. A dedicated cancel-resolver thread
// resolves pending cancels (shed resumptions, explicit cancels of queued
// sessions) so no worker or dispatcher ever blocks on a session's RunJob
// for them. Progress frames appended by running sessions are flushed to
// `stream` subscribers on every worker tick, bounded by per-connection
// output backpressure (connection.h).
//
// Graceful shutdown (shutdown request or RequestShutdown()): the workers
// stop admitting, the admission queues unblock the dispatchers, jobs in
// flight run to completion (queued-but-unstarted sessions resolve
// cancelled), streams are closed out with done frames, and Wait() returns.

#ifndef SLICETUNER_SERVE_SERVER_H_
#define SLICETUNER_SERVE_SERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/connection.h"
#include "serve/event_loop.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "store/maintenance.h"
#include "store/store.h"

namespace slicetuner {
namespace serve {

struct ServerOptions {
  /// Port to bind on 127.0.0.1; 0 picks an ephemeral port (read it back
  /// with port()).
  int port = 0;
  /// Sessions in flight per admission shard: 0 = one per pool worker.
  int max_concurrent_sessions = 0;
  /// admission.num_shards also sets the dispatcher thread count.
  AdmissionOptions admission;
  /// Stream-flush cadence of a worker with live streams; idle workers
  /// sleep longer and are woken by finished jobs/shutdown.
  int poll_interval_ms = 20;
  /// Epoll worker threads; 0 = min(4, hardware_concurrency).
  int num_workers = 0;
  /// Across all workers; excess accepts get an error line and a close.
  int max_connections = 64;
  /// Longest accepted request line; a connection whose (complete or
  /// still-unterminated) line exceeds this is answered with InvalidArgument
  /// and dropped, bounding per-connection input buffering.
  size_t max_request_bytes = 1 << 20;
  /// Pending output that pauses stream-frame emission for a connection
  /// until the client drains it (docs/PROTOCOL.md "Flow control").
  size_t output_pause_bytes = 256 * 1024;
  /// Pending output that drops the connection outright (a reader that
  /// stopped reading while pipelining requests).
  size_t max_output_bytes = 4 * 1024 * 1024;
  /// Non-empty: durable-state directory (src/store/). Start() recovers it —
  /// sessions resume warm, with their curve caches installed — before it
  /// listens; the maintenance thread then checkpoints the restored state.
  /// The server journals session lifecycles, honors the `snapshot`/
  /// `restore` admin verbs, and checkpoints once more on graceful shutdown.
  std::string state_dir;
  /// Background maintenance cadence (requires state_dir). The maintenance
  /// thread runs the startup checkpoint first; when a trigger is set, it
  /// then checkpoints the store online on that cadence — collapsing sealed
  /// journal generations into a fresh snapshot and retiring both — without
  /// pausing serving (src/store/maintenance.h).
  store::MaintenancePolicy maintenance;
  /// Un-snapshotted journal tail size that logs a warning and raises the
  /// store_journal_tail_bytes gauge alarm even when maintenance is off
  /// (0 disables the warning).
  long long journal_tail_warn_bytes = 64 * 1024 * 1024;
};

class TuningServer {
 public:
  explicit TuningServer(ServerOptions options = ServerOptions());
  ~TuningServer();

  TuningServer(const TuningServer&) = delete;
  TuningServer& operator=(const TuningServer&) = delete;

  /// Binds, listens, and launches the worker + dispatcher + cancel threads.
  Status Start();

  /// The bound port (valid after Start).
  int port() const { return port_; }

  /// Blocks until the server has shut down (via a shutdown request or
  /// RequestShutdown) and every thread has exited.
  void Wait();

  /// Programmatic graceful shutdown; idempotent.
  void RequestShutdown();

  SessionManager& sessions() { return sessions_; }
  const AdmissionController& admission() const { return admission_; }
  /// The durable store backing this server; nullptr without a state dir.
  store::DurableStore* durable_store() { return store_.get(); }
  /// The background maintenance thread (startup checkpoint, then the
  /// policy's cadence); nullptr without a state dir.
  store::MaintenanceManager* maintenance() { return maintenance_.get(); }
  /// What startup recovery did (empty report without a state dir).
  const RestoreReport& restore_report() const { return restore_report_; }

  /// Server-wide counters (the stats response payload).
  json::Value StatsJson() const;

 private:
  /// One epoll worker: the loop, the connections it accepted (keyed by
  /// tag), and its obs handles. Everything here is touched only by the
  /// worker's own thread once it starts.
  struct Worker {
    int index = 0;
    EventLoop loop;
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
    uint64_t next_tag = 1;  // 0 is the listen fd's tag
    std::thread thread;
    obs::Counter* requests = nullptr;
    obs::Counter* accepts = nullptr;
    obs::Gauge* connections = nullptr;
  };

  void WorkerLoop(Worker* worker);
  void DispatchLoop(size_t shard);
  void CancelLoop();
  void WakeWorkers();

  /// Recovers the state dir before Start() listens: opens the store,
  /// restores every session, attaches the store for journaling, and
  /// creates the maintenance manager, which owes the startup checkpoint
  /// and runs it once Start() has opened the listen socket. Crash safety
  /// does not need that checkpoint first: Open() sealed the recovered
  /// generations and appends go to a fresh one.
  Status OpenStateDir();
  /// Snapshots every session through the store's one checkpoint path.
  Result<store::CheckpointReport> Checkpoint();
  void WriteFinalSnapshot();

  // All of the below run on `worker`'s own thread.
  void AcceptReady(Worker* worker);
  void ReadReady(Worker* worker, Connection* conn);
  void ProcessLines(Worker* worker, Connection* conn);
  void RejectOversizedInput(Connection* conn);
  void HandleLine(Worker* worker, Connection* conn, std::string_view line);
  json::Value HandleRequest(Connection* conn, const Request& request);
  void EmitFrames(Connection* conn, bool final_pass);
  void FlushWorker(Worker* worker, bool final_pass);
  void DestroyConnection(Worker* worker, uint64_t tag);

  ServerOptions options_;
  SessionManager sessions_;
  AdmissionController admission_;
  std::unique_ptr<store::DurableStore> store_;
  // Declared after store_ so its destructor (which joins the maintenance
  // thread) runs before the store goes away.
  std::unique_ptr<store::MaintenanceManager> maintenance_;
  RestoreReport restore_report_;
  std::atomic<bool> final_snapshot_written_{false};

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> started_{false};
  std::atomic<int> open_connections_{0};
  std::atomic<size_t> requests_handled_{0};
  std::atomic<size_t> frames_streamed_{0};
  // Shed rejections that carried a retry_after_ms hint (stats response).
  std::atomic<size_t> retry_after_sent_{0};
  std::atomic<size_t> shed_restoring_{0};
  std::atomic<size_t> cancels_resolved_{0};
  std::atomic<size_t> connections_dropped_overflow_{0};

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> dispatch_threads_;
  std::thread cancel_thread_;
};

}  // namespace serve
}  // namespace slicetuner

#endif  // SLICETUNER_SERVE_SERVER_H_
