#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/trace_context.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/timer.h"
#include "serve/serve_metrics.h"

namespace slicetuner {
namespace serve {

namespace {

// The shared listen fd's tag in every worker's event loop; connection tags
// start at 1.
constexpr uint64_t kListenTag = 0;

// Idle tick of a worker with no live streams: nothing to flush on a
// cadence, and the job/cancel/shutdown paths Wake() it explicitly.
constexpr int kIdlePollMs = 200;

// Events a `trace` request returns when the client names no limit.
constexpr size_t kDefaultTraceLimit = 256;

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal("fcntl(O_NONBLOCK) failed");
  }
  return Status::OK();
}

// Default executor-saturation signal: the shared pool's queue depth.
AdmissionOptions WithDefaultProbe(AdmissionOptions admission) {
  if (!admission.backlog_probe) {
    admission.backlog_probe = [] {
      return DefaultThreadPool().PendingCount();
    };
  }
  return admission;
}

int ResolveWorkerCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, std::max(1u, hw)));
}

}  // namespace

TuningServer::TuningServer(ServerOptions options)
    : options_(std::move(options)),
      admission_(WithDefaultProbe(options_.admission)) {}

TuningServer::~TuningServer() {
  RequestShutdown();
  Wait();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status TuningServer::OpenStateDir() {
  ServeMetrics& metrics = ServeMetrics::Get();
  obs::ScopedTimer replay_timer;
  obs::ScopedTimer open_timer;
  ST_ASSIGN_OR_RETURN(store_, store::DurableStore::Open(options_.state_dir));
  metrics.replay_open_ms->Set(obs::NanosToMillis(open_timer.Stop()));
  // Recovery order matters: materialize sessions from the recovered
  // snapshot + journal tail first, then attach the store (so replay itself
  // journals nothing). The checkpoint that covers everything restored and
  // retires the recovered journal chain is owed to the maintenance thread.
  obs::ScopedTimer restore_timer;
  ST_ASSIGN_OR_RETURN(
      restore_report_,
      sessions_.RestoreFromState(store_->recovered(), store_.get(),
                                 /*skip_existing=*/false));
  metrics.replay_restore_ms->Set(obs::NanosToMillis(restore_timer.Stop()));
  sessions_.AttachStore(store_.get());
  store_->SetTailWarnBytes(
      options_.journal_tail_warn_bytes > 0
          ? static_cast<size_t>(options_.journal_tail_warn_bytes)
          : 0);
  maintenance_ = std::make_unique<store::MaintenanceManager>(
      store_.get(), options_.maintenance,
      [this] { return sessions_.DurableSnapshot(); });
  sessions_.SetJobFinishedCallback(
      [this] { maintenance_->NotifyJobFinished(); });
  metrics.replay_ms->Set(obs::NanosToMillis(replay_timer.Stop()));
  return Status::OK();
}

Result<store::CheckpointReport> TuningServer::Checkpoint() {
  return store_->CheckpointOnline(
      [this] { return sessions_.DurableSnapshot(); },
      options_.maintenance.retain_snapshots);
}

void TuningServer::WriteFinalSnapshot() {
  if (store_ == nullptr || final_snapshot_written_.exchange(true)) return;
  const Result<store::CheckpointReport> written = Checkpoint();
  if (!written.ok()) {
    ST_LOG(Warning) << "shutdown snapshot failed: "
                    << written.status().ToString();
  }
}

Status TuningServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  if (!options_.state_dir.empty()) {
    ST_RETURN_NOT_OK(OpenStateDir());
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Internal(std::string("bind() failed: ") +
                            std::strerror(errno));
  }
  if (::listen(listen_fd_, SOMAXCONN) < 0) {
    return Status::Internal("listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Status::Internal("getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  ST_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  // Every worker watches the shared listen fd (level-triggered +
  // EPOLLEXCLUSIVE: the kernel wakes one worker per pending accept), and
  // owns the connections it accepts outright — no fd ever changes threads.
  const int num_workers = ResolveWorkerCount(options_.num_workers);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (int i = 0; i < num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;
    const std::string label = std::to_string(i);
    worker->requests =
        registry.counter("serve_worker_requests_total", "worker", label);
    worker->accepts =
        registry.counter("serve_worker_accepts_total", "worker", label);
    worker->connections =
        registry.gauge("serve_worker_connections", "worker", label);
    ST_RETURN_NOT_OK(worker->loop.Init());
    ST_RETURN_NOT_OK(worker->loop.Add(listen_fd_, kListenTag,
                                      /*want_write=*/false,
                                      /*edge_triggered=*/false,
                                      /*exclusive=*/true));
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { WorkerLoop(w); });
  }
  for (size_t shard = 0; shard < admission_.num_shards(); ++shard) {
    dispatch_threads_.emplace_back([this, shard] { DispatchLoop(shard); });
  }
  cancel_thread_ = std::thread([this] { CancelLoop(); });
  // Listening first, compacting second: the startup checkpoint runs now.
  if (maintenance_ != nullptr) maintenance_->Start();
  return Status::OK();
}

void TuningServer::Wait() {
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  for (std::thread& dispatcher : dispatch_threads_) {
    if (dispatcher.joinable()) dispatcher.join();
  }
  if (cancel_thread_.joinable()) cancel_thread_.join();
  // Quiesce maintenance before the closing checkpoint: a checkpoint in
  // flight completes, and no new one starts underneath WriteFinalSnapshot.
  if (maintenance_ != nullptr) maintenance_->Stop();
  // Every loop has exited: sessions are quiescent, so the closing
  // checkpoint captures every curve cache and the next start resumes warm
  // without replaying the journal.
  WriteFinalSnapshot();
}

void TuningServer::RequestShutdown() {
  if (shutdown_requested_.exchange(true)) return;
  admission_.Stop();
  WakeWorkers();
}

void TuningServer::WakeWorkers() {
  for (auto& worker : workers_) worker->loop.Wake();
}

json::Value TuningServer::StatsJson() const {
  const AdmissionStats admission = admission_.stats();
  json::Value out = OkResponse();
  out.Set("requests_handled",
          requests_handled_.load(std::memory_order_relaxed));
  out.Set("frames_streamed", frames_streamed_.load(std::memory_order_relaxed));
  json::Value admission_json = json::Value::Object();
  admission_json.Set("admitted", admission.admitted);
  admission_json.Set("shed_queue_full", admission.shed_queue_full);
  admission_json.Set("shed_backlog", admission.shed_backlog);
  admission_json.Set("shed_total",
                     admission.shed_queue_full + admission.shed_backlog);
  admission_json.Set("shed_restoring",
                     shed_restoring_.load(std::memory_order_relaxed));
  admission_json.Set("retry_after_sent",
                     retry_after_sent_.load(std::memory_order_relaxed));
  admission_json.Set("max_depth_seen", admission.max_depth_seen);
  admission_json.Set("queue_depth", admission_.depth());
  admission_json.Set("cancels_admitted", admission.cancels_admitted);
  admission_json.Set("cancels_resolved",
                     cancels_resolved_.load(std::memory_order_relaxed));
  out.Set("admission", std::move(admission_json));
  // Event-loop shape: how requests spread over workers and dispatchers.
  json::Value transport = json::Value::Object();
  transport.Set("workers", workers_.size());
  transport.Set("dispatch_shards", admission_.num_shards());
  transport.Set("open_connections",
                open_connections_.load(std::memory_order_relaxed));
  transport.Set("dropped_output_overflow",
                connections_dropped_overflow_.load(std::memory_order_relaxed));
  out.Set("transport", std::move(transport));
  out.Set("sessions", sessions_.StatsJson());
  // Headline latency summary from the process-wide histograms (the full
  // distribution set is one `metrics` request away).
  {
    const obs::HistogramSnapshot submit_done =
        ServeMetrics::Get().submit_to_done_ns->Snapshot();
    const obs::HistogramSnapshot run =
        ServeMetrics::Get().run_ns->Snapshot();
    json::Value latency = json::Value::Object();
    latency.Set("submit_to_done_p50_ms", submit_done.p50 / 1e6);
    latency.Set("submit_to_done_p99_ms", submit_done.p99 / 1e6);
    latency.Set("run_p50_ms", run.p50 / 1e6);
    latency.Set("run_p99_ms", run.p99 / 1e6);
    out.Set("latency", std::move(latency));
  }
  json::Value pool = json::Value::Object();
  pool.Set("threads", DefaultThreadPool().num_threads());
  pool.Set("pending", DefaultThreadPool().PendingCount());
  pool.Set("in_flight", DefaultThreadPool().InFlightCount());
  out.Set("pool", std::move(pool));
  if (store_ != nullptr) {
    json::Value store_json = store_->StatsJson();
    store_json.Set("startup_restore", restore_report_.ToJson());
    store_json.Set("maintenance", maintenance_->StatsJson());
    out.Set("store", std::move(store_json));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Dispatchers: admitted sessions go straight onto the shared pool, at most
// max_concurrent_sessions in flight per shard.
// ---------------------------------------------------------------------------

void TuningServer::DispatchLoop(size_t shard) {
  const size_t cap =
      options_.max_concurrent_sessions > 0
          ? static_cast<size_t>(options_.max_concurrent_sessions)
          : DefaultThreadPool().num_threads();
  // A job frees its slot and notifies under `mu`, so the final wait cannot
  // return (destroying these locals) while a job still touches them.
  std::mutex mu;
  std::condition_variable slot_freed;
  size_t in_flight = 0;
  auto release_slot = [&] {
    std::lock_guard<std::mutex> lock(mu);
    --in_flight;
    slot_freed.notify_one();
  };
  for (;;) {
    // Claim a slot before popping: sessions waiting for one stay queued in
    // admission, where shedding and shutdown still see them.
    {
      std::unique_lock<std::mutex> lock(mu);
      slot_freed.wait(lock, [&] { return in_flight < cap; });
      ++in_flight;
    }
    const std::optional<uint64_t> id = admission_.Next(shard);
    TuningSession* session = id ? sessions_.FindById(*id) : nullptr;
    if (session == nullptr) {
      release_slot();
      if (!id) break;  // stopped and drained
      continue;
    }
    obs::ScopedTimer dispatch_timer(ServeMetrics::Get().dispatch_ns);
    // Popped after a shutdown request means queued but never started:
    // RunJob resolves it cancelled without running (server.h).
    if (shutdown_requested_.load(std::memory_order_relaxed)) {
      session->RequestCancel();
    }
    obs::Recorder::Global().Record(obs::EventKind::kDispatch,
                                   session->trace_id(),
                                   session->name().c_str(),
                                   static_cast<int64_t>(shard));
    DefaultThreadPool().Submit([this, session, &release_slot] {
      // The session must not be touched once RunJob returns: a worker may
      // already have resumed and re-admitted it.
      sessions_.RecordOutcome(session->RunJob());
      WakeWorkers();  // flush its done frame now, not on an idle tick
      release_slot();
    });
  }
  // Wait() quiesces on this: no job of the shard outlives its dispatcher.
  std::unique_lock<std::mutex> lock(mu);
  slot_freed.wait(lock, [&] { return in_flight == 0; });
}

// ---------------------------------------------------------------------------
// Cancel resolver: pending cancels resolve here, never on a worker thread.
// ---------------------------------------------------------------------------

void TuningServer::CancelLoop() {
  for (;;) {
    const std::vector<uint64_t> cancels = admission_.NextCancels();
    if (cancels.empty()) return;  // stopped and drained
    for (const uint64_t id : cancels) {
      TuningSession* session = sessions_.FindById(id);
      if (session == nullptr) continue;
      // The cancel flag is already set, so RunJob resolves the session
      // cancelled in O(1) without running the job, counting it before the
      // phase publishes. FailedPrecondition means it was no longer queued
      // (already resolved); skip the outcome so nothing is double-counted.
      const Status status = session->RunJob([this] {
        cancels_resolved_.fetch_add(1, std::memory_order_relaxed);
        ServeMetrics::Get().cancels_resolved->Add();
      });
      if (status.code() == StatusCode::kFailedPrecondition) continue;
      sessions_.RecordOutcome(status);
    }
    WakeWorkers();  // flush the resolved sessions' done frames promptly
  }
}

// ---------------------------------------------------------------------------
// Workers: accept, frame lines, answer requests, flush streams.
// ---------------------------------------------------------------------------

void TuningServer::WorkerLoop(Worker* worker) {
  std::vector<EventLoop::Event> events;
  for (;;) {
    // Exit once shutdown is requested and the dispatchers have drained:
    // all streams can then be closed out with final frames.
    const bool draining = shutdown_requested_.load(std::memory_order_relaxed);
    if (draining && sessions_.active_count() == 0) break;

    bool streams_live = false;
    for (const auto& entry : worker->conns) {
      if (entry.second->streaming != nullptr) {
        streams_live = true;
        break;
      }
    }
    const int timeout =
        (streams_live || draining) ? options_.poll_interval_ms : kIdlePollMs;
    worker->loop.Poll(timeout, &events);

    for (const EventLoop::Event& event : events) {
      if (event.tag == kListenTag) {
        if (!shutdown_requested_.load(std::memory_order_relaxed)) {
          AcceptReady(worker);
        }
        continue;
      }
      const auto it = worker->conns.find(event.tag);
      if (it == worker->conns.end()) continue;
      if (event.readable || event.hangup) {
        ReadReady(worker, it->second.get());
      }
      // Writability is not handled here: FlushWorker below flushes every
      // connection with pending output and re-arms EPOLLOUT only while
      // the kernel buffer stays full.
    }

    FlushWorker(worker, /*final_pass=*/false);
  }

  FlushWorker(worker, /*final_pass=*/true);
  const int open = static_cast<int>(worker->conns.size());
  worker->conns.clear();  // Connection dtors close the fds
  open_connections_.fetch_sub(open, std::memory_order_relaxed);
  worker->connections->Set(0.0);
  ServeMetrics::Get().connections->Set(
      static_cast<double>(open_connections_.load(std::memory_order_relaxed)));
}

void TuningServer::AcceptReady(Worker* worker) {
  obs::ScopedTimer accept_timer(ServeMetrics::Get().accept_ns);
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        ServeMetrics::Get().eintr_retries->Add();
        continue;
      }
      // EAGAIN: drained. Anything else (ECONNABORTED, EMFILE, ...) is
      // transient per-connection; the next listen event retries.
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        ServeMetrics::Get().poll_errors->Add();
      }
      break;
    }
    if (open_connections_.fetch_add(1, std::memory_order_relaxed) >=
        options_.max_connections) {
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
      // Best-effort rejection line so the client sees why it was dropped
      // (docs/PROTOCOL.md "Connection limit").
      const std::string reject =
          ErrorResponse(Status::ResourceExhausted("connection limit reached"))
              .Dump() +
          "\n";
      (void)::send(fd, reject.data(), reject.size(), MSG_NOSIGNAL);
      ::close(fd);
      ServeMetrics::Get().conns_rejected->Add();
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    ConnectionLimits limits;
    limits.max_request_bytes = options_.max_request_bytes;
    limits.output_pause_bytes = options_.output_pause_bytes;
    limits.max_output_bytes = options_.max_output_bytes;
    const uint64_t tag = worker->next_tag++;
    auto conn = std::make_unique<Connection>(fd, tag, limits);
    if (!worker->loop.Add(fd, tag, /*want_write=*/false,
                          /*edge_triggered=*/true)
             .ok()) {
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
      continue;  // conn dtor closes the fd
    }
    worker->conns.emplace(tag, std::move(conn));
    worker->accepts->Add();
    ServeMetrics::Get().accepts->Add();
  }
  worker->connections->Set(static_cast<double>(worker->conns.size()));
  ServeMetrics::Get().connections->Set(
      static_cast<double>(open_connections_.load(std::memory_order_relaxed)));
}

void TuningServer::ReadReady(Worker* worker, Connection* conn) {
  if (!conn->fd_open() || conn->closed) return;
  for (;;) {
    const Connection::ReadStatus status = conn->ReadInput();
    ProcessLines(worker, conn);
    switch (status) {
      case Connection::ReadStatus::kCapped:
        // More kernel data behind the per-call budget; with edge
        // triggering this loop must drain it now or lose the wakeup.
        if (conn->fd_open() && !conn->closed) continue;
        return;
      case Connection::ReadStatus::kDrained:
        return;
      case Connection::ReadStatus::kPeerClosed:
        conn->closed = true;  // flush what we owe, then drop
        return;
      case Connection::ReadStatus::kError:
        conn->streaming = nullptr;
        conn->Close();  // reaped by FlushWorker
        return;
    }
  }
}

void TuningServer::ProcessLines(Worker* worker, Connection* conn) {
  std::string_view line;
  while (!conn->closed && conn->NextLine(&line)) {
    if (!line.empty()) HandleLine(worker, conn, line);
    if (conn->output_overflow()) {
      // The reader stopped reading but keeps pipelining requests; drop it
      // rather than buffer responses without bound.
      connections_dropped_overflow_.fetch_add(1, std::memory_order_relaxed);
      ServeMetrics::Get().output_overflow->Add();
      conn->streaming = nullptr;
      conn->closed = true;
      conn->Close();
      return;
    }
  }
  if (!conn->closed && conn->input_overflow()) {
    RejectOversizedInput(conn);
  }
  conn->CompactInput();
}

void TuningServer::RejectOversizedInput(Connection* conn) {
  conn->QueueLine(ErrorResponse(Status::InvalidArgument(
                                    "request line exceeds max_request_bytes"))
                      .Dump());
  conn->DiscardInput();
  conn->streaming = nullptr;
  conn->closed = true;  // dropped once the error response flushes
}

void TuningServer::HandleLine(Worker* worker, Connection* conn,
                              std::string_view line) {
  requests_handled_.fetch_add(1, std::memory_order_relaxed);
  worker->requests->Add();
  ServeMetrics::Get().requests->Add();
  obs::ScopedTimer parse_timer(ServeMetrics::Get().parse_ns);
  const Result<Request> request = Request::Parse(std::string(line));
  parse_timer.Stop();
  if (!request.ok()) {
    conn->QueueLine(ErrorResponse(request.status()).Dump());
    return;
  }
  // Every request runs inside a trace: the client's id when supplied,
  // minted here otherwise. The scope makes the id visible to logging, the
  // flight recorder, and (via TuningSession::SetTraceId) the dispatcher
  // thread that later runs the job.
  uint64_t trace_id = trace::ParseTraceId(request->trace_id);
  if (trace_id == 0) trace_id = trace::MintTraceId();
  trace::TraceScope trace_scope(trace_id, request->session);
  obs::Recorder::Global().RecordHere(
      obs::EventKind::kRequestRecv,
      static_cast<int64_t>(request->type));
  json::Value response = HandleRequest(conn, *request);
  obs::Recorder::Global().RecordHere(obs::EventKind::kRequestDone,
                                     IsOkResponse(response) ? 1 : 0);
  // Echo the trace id — unless the handler already set one (a poll echoes
  // the *session's* trace id: the loadgen's end-to-end propagation check).
  if (!response.Has("trace_id")) {
    response.Set("trace_id", trace::FormatTraceId(trace_id));
  }
  conn->QueueLine(response.Dump());
}

json::Value TuningServer::HandleRequest(Connection* conn,
                                        const Request& request) {
  switch (request.type) {
    case RequestType::kSubmitJob: {
      if (shutdown_requested_.load(std::memory_order_relaxed)) {
        return ErrorResponse(
            Status::FailedPrecondition("server is shutting down"));
      }
      obs::ScopedTimer admit_timer(ServeMetrics::Get().admit_ns);
      bool created = false;
      const Result<TuningSession*> session =
          sessions_.Register(request.job, &created);
      if (!session.ok()) {
        // Store-aware admission: Register sheds (ResourceExhausted) while
        // the restore verb is rebuilding this name; hand the client the
        // same retry hint as any other transient overload.
        if (session.status().code() == StatusCode::kResourceExhausted) {
          shed_restoring_.fetch_add(1, std::memory_order_relaxed);
          retry_after_sent_.fetch_add(1, std::memory_order_relaxed);
          ServeMetrics::Get().retry_after_sent->Add();
          return ErrorResponse(session.status(), admission_.retry_after_ms());
        }
        if (session.status().code() == StatusCode::kAlreadyExists) {
          // A shed resumption parks the session queued-with-cancel-flag
          // until the cancel thread resolves it; a retried submit landing
          // in that window is the same transient shed, not a conflict.
          TuningSession* existing = sessions_.Find(request.job.session);
          if (existing != nullptr && existing->cancel_requested() &&
              existing->phase() == SessionPhase::kQueued) {
            retry_after_sent_.fetch_add(1, std::memory_order_relaxed);
            ServeMetrics::Get().retry_after_sent->Add();
            return ErrorResponse(
                Status::ResourceExhausted("session '" + request.job.session +
                                          "' cancel resolution in flight"),
                admission_.retry_after_ms());
          }
        }
        return ErrorResponse(session.status());
      }
      // The session inherits the submit's trace id before admission can
      // hand it to a dispatcher: RunJob always sees the id that armed it.
      (*session)->SetTraceId(trace::CurrentTraceId());
      const Status admitted = admission_.Admit((*session)->id());
      if (!admitted.ok()) {
        if (created) {
          // Never admitted, so nothing else references it: drop it outright
          // or shed traffic with fresh names grows the registry forever.
          sessions_.Drop((*session)->id());
        } else {
          // A resumed session pre-existed; flag the cancel and let the
          // dedicated cancel thread resolve it so a retried submit can
          // re-arm it. Never RunJob on a worker thread: it would block
          // every connection this worker owns.
          (*session)->RequestCancel();
          admission_.AdmitCancel((*session)->id());
        }
        int retry = 0;
        if (admitted.code() == StatusCode::kResourceExhausted) {
          retry = admission_.retry_after_ms();
          ServeMetrics::Get().retry_after_sent->Add();
          retry_after_sent_.fetch_add(1, std::memory_order_relaxed);
        }
        return ErrorResponse(admitted, retry);
      }
      json::Value response = OkResponse();
      response.Set("session", (*session)->name());
      response.Set("state", SessionPhaseName((*session)->phase()));
      response.Set("queue_depth", admission_.depth());
      return response;
    }
    case RequestType::kPoll: {
      TuningSession* session = sessions_.Find(request.session);
      if (session == nullptr) {
        return ErrorResponse(
            Status::NotFound("unknown session '" + request.session + "'"));
      }
      json::Value response = OkResponse();
      const json::Value snapshot = session->Snapshot();
      for (const auto& member : snapshot.members()) {
        response.Set(member.first, member.second);
      }
      return response;
    }
    case RequestType::kStream: {
      TuningSession* session = sessions_.Find(request.session);
      if (session == nullptr) {
        return ErrorResponse(
            Status::NotFound("unknown session '" + request.session + "'"));
      }
      conn->streaming = session;
      conn->frame_cursor = 0;
      json::Value response = OkResponse();
      response.Set("session", session->name());
      response.Set("streaming", true);
      return response;
    }
    case RequestType::kCancel: {
      const Status status = sessions_.Cancel(request.session);
      if (!status.ok()) return ErrorResponse(status);
      obs::Recorder::Global().RecordHere(obs::EventKind::kCancel);
      json::Value response = OkResponse();
      response.Set("session", request.session);
      response.Set("cancelling", true);
      return response;
    }
    case RequestType::kStats:
      return StatsJson();
    case RequestType::kMetrics: {
      // The whole registry: counters, gauges, and quantile-summarized
      // histograms from every layer (docs/OBSERVABILITY.md). A prefix
      // filter ("serve_") keeps hot pollers like slicetuner_top cheap.
      json::Value response = OkResponse();
      const json::Value snapshot =
          obs::MetricsRegistry::Global().SnapshotJson(request.prefix);
      for (const auto& member : snapshot.members()) {
        response.Set(member.first, member.second);
      }
      return response;
    }
    case RequestType::kTrace: {
      // Recent flight-recorder events, filtered by session and/or trace
      // id, newest last. A session filter that names a live session also
      // returns its last completed job's span tree.
      const uint64_t filter = trace::ParseTraceId(request.trace_id);
      const size_t limit = request.limit > 0
                               ? static_cast<size_t>(request.limit)
                               : kDefaultTraceLimit;
      json::Value response = OkResponse();
      const json::Value events = obs::Recorder::Global().SnapshotJson(
          request.session, filter, limit);
      for (const auto& member : events.members()) {
        response.Set(member.first, member.second);
      }
      if (!request.session.empty()) {
        TuningSession* session = sessions_.Find(request.session);
        if (session != nullptr) {
          response.Set("state", SessionPhaseName(session->phase()));
          const json::Value tree = session->TraceTree();
          if (tree.is_object()) response.Set("trace", tree);
        }
      }
      return response;
    }
    case RequestType::kSnapshot: {
      if (store_ == nullptr) {
        return ErrorResponse(Status::FailedPrecondition(
            "server started without --state-dir; nothing to snapshot"));
      }
      const Result<store::CheckpointReport> written = Checkpoint();
      if (!written.ok()) return ErrorResponse(written.status());
      json::Value response = OkResponse();
      response.Set("snapshot", true);
      response.Set("sessions", sessions_.session_count());
      response.Set("journal_generation",
                   static_cast<long long>(store_->stats().journal_generation));
      return response;
    }
    case RequestType::kRestore: {
      if (store_ == nullptr) {
        return ErrorResponse(Status::FailedPrecondition(
            "server started without --state-dir; nothing to restore"));
      }
      // Make in-flight journal records visible on disk, then re-merge any
      // session the live registry does not already hold. Idempotent: live
      // sessions are never overwritten, and submits racing the rebuild are
      // shed with a retry hint (SessionManager::Register).
      const Result<store::RecoveredState> state = store_->SyncAndRead();
      if (!state.ok()) return ErrorResponse(state.status());
      const Result<RestoreReport> report = sessions_.RestoreFromState(
          *state, store_.get(), /*skip_existing=*/true);
      if (!report.ok()) return ErrorResponse(report.status());
      json::Value response = OkResponse();
      response.Set("restore", report->ToJson());
      return response;
    }
    case RequestType::kShutdown: {
      RequestShutdown();
      json::Value response = OkResponse();
      response.Set("shutting_down", true);
      return response;
    }
  }
  return ErrorResponse(Status::Internal("unhandled request type"));
}

void TuningServer::EmitFrames(Connection* conn, bool final_pass) {
  if (conn->streaming == nullptr || !conn->fd_open()) return;
  TuningSession* session = conn->streaming;
  const size_t available = session->FrameCount();
  while (conn->frame_cursor < available) {
    if (conn->output_paused()) {
      // Backpressure: the client is not draining; emission resumes when
      // pending output falls back under the pause threshold. Applies on
      // the final pass too — a stalled reader never absorbs more frames.
      ServeMetrics::Get().stream_pauses->Add();
      return;
    }
    conn->QueueLine(session->FrameAt(conn->frame_cursor).Dump());
    ++conn->frame_cursor;
    frames_streamed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (session->Terminal() && conn->frame_cursor >= session->FrameCount()) {
    if (!final_pass && conn->output_paused()) return;
    json::Value done = DoneFrame(session->name(),
                                 SessionPhaseName(session->phase()),
                                 session->last_status());
    // The done frame closes the request trace: the id the submit carried
    // and the job's span tree (round spans as children) ride along.
    const uint64_t trace_id = session->trace_id();
    if (trace_id != 0) {
      done.Set("trace_id", trace::FormatTraceId(trace_id));
    }
    const json::Value tree = session->TraceTree();
    if (tree.is_object()) done.Set("trace", tree);
    conn->QueueLine(done.Dump());
    obs::Recorder::Global().Record(obs::EventKind::kFrameDone, trace_id,
                                   session->name().c_str());
    conn->streaming = nullptr;
  }
}

void TuningServer::FlushWorker(Worker* worker, bool final_pass) {
  obs::ScopedTimer flush_timer(ServeMetrics::Get().flush_ns);
  std::vector<uint64_t> dead;
  for (auto& entry : worker->conns) {
    Connection* conn = entry.second.get();
    if (!conn->fd_open()) {
      dead.push_back(entry.first);
      continue;
    }
    EmitFrames(conn, final_pass);
    if (conn->pending_output() > 0) {
      const Connection::FlushStatus status = conn->FlushOutput();
      if (status == Connection::FlushStatus::kClosed) {
        conn->streaming = nullptr;
        conn->Close();
        dead.push_back(entry.first);
        continue;
      }
      // Only keep EPOLLOUT armed while the kernel buffer is actually
      // full; a permanently-armed writable fd would busy-spin the loop.
      const bool want_write = status == Connection::FlushStatus::kBlocked;
      if (want_write != conn->write_armed &&
          worker->loop.Update(conn->fd(), conn->tag(), want_write).ok()) {
        conn->write_armed = want_write;
      }
    } else if (conn->write_armed &&
               worker->loop
                   .Update(conn->fd(), conn->tag(), /*want_write=*/false)
                   .ok()) {
      conn->write_armed = false;
    }
    if (conn->closed && conn->pending_output() == 0 &&
        conn->streaming == nullptr) {
      dead.push_back(entry.first);
    }
  }
  for (const uint64_t tag : dead) DestroyConnection(worker, tag);
}

void TuningServer::DestroyConnection(Worker* worker, uint64_t tag) {
  const auto it = worker->conns.find(tag);
  if (it == worker->conns.end()) return;
  Connection* conn = it->second.get();
  if (conn->fd_open()) {
    worker->loop.Remove(conn->fd());
    conn->Close();
  }
  worker->conns.erase(it);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
  worker->connections->Set(static_cast<double>(worker->conns.size()));
  ServeMetrics::Get().connections->Set(
      static_cast<double>(open_connections_.load(std::memory_order_relaxed)));
}

}  // namespace serve
}  // namespace slicetuner
