#include "load/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/status.h"
#include "common/trace_context.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace slicetuner {
namespace load {

namespace {

// Client-side metric handles, resolved once (docs/OBSERVABILITY.md
// "loadgen_*" catalog).
struct LoadMetrics {
  obs::Counter* submits;
  obs::Counter* submit_attempts;
  obs::Counter* sheds;
  obs::Counter* polls;
  obs::Counter* reconnects;
  obs::Counter* cancels;
  obs::Counter* interrupted;
  obs::Counter* stalled_streams;
  obs::Histogram* poll_ns;
  obs::Histogram* submit_to_done_ns;

  static LoadMetrics& Get() {
    static LoadMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      LoadMetrics lm;
      lm.submits = reg.counter("loadgen_submits_total");
      lm.submit_attempts = reg.counter("loadgen_submit_attempts_total");
      lm.sheds = reg.counter("loadgen_sheds_total");
      lm.polls = reg.counter("loadgen_polls_total");
      lm.reconnects = reg.counter("loadgen_reconnects_total");
      lm.cancels = reg.counter("loadgen_cancels_sent_total");
      lm.interrupted = reg.counter("loadgen_interrupted_total");
      lm.stalled_streams = reg.counter("loadgen_stalled_streams_total");
      lm.poll_ns = reg.histogram("loadgen_poll_ns");
      lm.submit_to_done_ns = reg.histogram("loadgen_submit_to_done_ns");
      return lm;
    }();
    return m;
  }
};

bool IsInterruptedError(const json::Value& snapshot) {
  return snapshot.GetString("error").find("interrupted by restart") !=
         std::string::npos;
}

}  // namespace

// One session's progress through its op list. Owned by exactly one driver
// thread after partitioning; no locking needed.
struct LoadDriver::SessionState {
  const SessionPlan* plan = nullptr;

  enum class Stage {
    kIdle,           // waiting for due_ms, then submit ops_[op_index]
    kProbe,          // submit hit a transport error: poll to learn its fate
    kAwaitTerminal,  // submitted; polling until a terminal state
    kDone,           // no ops left (or a terminal failure was recorded)
  };
  Stage stage = Stage::kIdle;

  size_t op_index = 0;
  uint64_t due_ms = 0;
  uint64_t next_poll_ms = 0;
  // Cancel scheduled against the in-flight op (kNoCancel = none pending).
  static constexpr uint64_t kNoCancel = ~0ULL;
  uint64_t cancel_at_ms = kNoCancel;
  bool cancel_sent = false;

  // Jobs the daemon must have completed once the current op finishes:
  // op_index 0 contributes 1, each append 1 more. Lets a probe decide
  // whether a transport-errored submit was actually admitted.
  long long expected_jobs = 0;

  uint64_t submit_ack_ns = 0;
  bool stalled_stream_opened = false;

  // Client-minted trace id for the in-flight op. Minted once per op (not
  // per attempt) so a submit that lands despite a transport error still
  // carries the id the echo check expects; cleared when the op advances.
  uint64_t op_trace_id = 0;

  SessionOutcome outcome;

  void Taint(const std::string& reason) {
    if (!outcome.tainted) {
      outcome.tainted = true;
      outcome.taint_reason = reason;
    }
  }
};

// A driver thread's connection: lazily (re)established, marked dead on any
// transport error so the next call reconnects (after backoff) against the
// daemon's *current* port.
struct LoadDriver::ThreadConn {
  serve::ClientConnection conn;
  bool alive = false;
  bool ever_connected = false;
  uint64_t retry_at_ms = 0;
  std::function<int()>* port = nullptr;
  int io_timeout_ms = 10000;
  int backoff_ms = 50;
  uint64_t reconnects = 0;
  // Stream connections deliberately left unread (backpressure fodder);
  // kept open for the run's duration.
  std::vector<serve::ClientConnection> stalled;

  bool Ensure(uint64_t now_ms) {
    if (alive) return true;
    if (now_ms < retry_at_ms) return false;
    int p = (*port)();
    if (p > 0) {
      auto result = serve::ClientConnection::Connect(p, io_timeout_ms);
      if (result.ok()) {
        conn = std::move(result).value();
        alive = true;
        if (ever_connected) {
          ++reconnects;
          LoadMetrics::Get().reconnects->Add();
        }
        ever_connected = true;
        return true;
      }
    }
    retry_at_ms = now_ms + static_cast<uint64_t>(backoff_ms);
    return false;
  }

  Result<json::Value> Call(const serve::Request& request, uint64_t now_ms) {
    if (!Ensure(now_ms))
      return Status::ResourceExhausted("daemon unreachable");
    Result<json::Value> result = conn.Call(request, io_timeout_ms);
    if (!result.ok()) {
      conn.Close();
      alive = false;
      retry_at_ms = now_ms + static_cast<uint64_t>(backoff_ms);
    }
    return result;
  }
};

LoadDriver::LoadDriver(const Workload& workload, DriverOptions options)
    : workload_(workload), options_(std::move(options)) {}

LoadDriver::~LoadDriver() = default;

uint64_t LoadDriver::NowMs() const {
  return (obs::MonotonicNanos() - start_ns_) / 1000000ULL;
}

Result<LoadReport> LoadDriver::Run() {
  if (!options_.port)
    return Status::InvalidArgument("DriverOptions.port callback is required");
  if (options_.threads <= 0)
    return Status::InvalidArgument("threads must be positive");

  start_ns_ = obs::MonotonicNanos();
  states_.clear();
  states_.reserve(workload_.sessions.size());
  for (const auto& plan : workload_.sessions) {
    auto s = std::make_unique<SessionState>();
    s->plan = &plan;
    s->due_ms = static_cast<uint64_t>(plan.arrival_ms);
    s->outcome.name = plan.name;
    s->outcome.scenario = plan.scenario;
    states_.push_back(std::move(s));
  }

  const int threads =
      std::min<int>(options_.threads,
                    std::max<size_t>(size_t{1}, states_.size()));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    std::vector<SessionState*> mine;
    for (size_t i = static_cast<size_t>(t); i < states_.size();
         i += static_cast<size_t>(threads))
      mine.push_back(states_[i].get());
    pool.emplace_back(&LoadDriver::ThreadMain, this, t, std::move(mine));
  }
  for (auto& th : pool) th.join();

  LoadReport report;
  report.wall_seconds =
      static_cast<double>(obs::MonotonicNanos() - start_ns_) / 1e9;
  report.all_terminal = true;
  report.trace_ids_echoed = true;
  for (const auto& s : states_) {
    SessionOutcome& o = s->outcome;
    // A session whose thread hit the deadline mid-op may still carry the
    // previous op's terminal state; report it honestly as unfinished.
    if (s->stage != SessionState::Stage::kDone) o.final_state = "unfinished";
    if (o.final_state == "done") {
      ++report.done;
      if (o.resubmitted_after_interrupt) report.restart_recovered = true;
      if (!o.tainted) {
        ++report.trace_checked;
        if (!o.trace_echoed) report.trace_ids_echoed = false;
      }
    } else if (o.final_state == "cancelled") {
      ++report.cancelled;
    } else if (o.final_state == "failed") {
      ++report.failed;
    } else {
      ++report.unfinished;
      report.all_terminal = false;
    }
    if (o.lost_after_ack) ++report.lost_after_ack;
    report.outcomes.push_back(o);
  }
  auto& m = LoadMetrics::Get();
  report.submits = m.submits->Value();
  report.submit_attempts = m.submit_attempts->Value();
  report.sheds = m.sheds->Value();
  report.polls = m.polls->Value();
  report.reconnects = m.reconnects->Value();
  report.cancels_sent = m.cancels->Value();
  report.interrupted = m.interrupted->Value();
  report.stalled_streams = m.stalled_streams->Value();
  return report;
}

void LoadDriver::ThreadMain(int thread_index,
                            std::vector<SessionState*> mine) {
  (void)thread_index;
  ThreadConn conn;
  conn.port = &options_.port;
  conn.io_timeout_ms = options_.io_timeout_ms;
  conn.backoff_ms = options_.reconnect_backoff_ms;

  const uint64_t deadline = static_cast<uint64_t>(options_.run_deadline_ms);
  while (true) {
    uint64_t now = NowMs();
    if (now >= deadline) break;
    bool any_live = false;
    bool progressed = false;
    for (SessionState* s : mine) {
      if (s->stage == SessionState::Stage::kDone) continue;
      any_live = true;
      if (now < s->due_ms) continue;
      StepSession(s, &conn, now);
      progressed = true;
      now = NowMs();
      if (now >= deadline) break;
    }
    if (!any_live) break;
    if (!progressed)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Stalled streams die with the thread; the server must have survived
  // them (that is the point).
  for (auto& c : conn.stalled) c.Close();
}

void LoadDriver::StepSession(SessionState* s, ThreadConn* conn,
                             uint64_t now_ms) {
  switch (s->stage) {
    case SessionState::Stage::kIdle:
      HandleSubmit(s, conn, now_ms);
      break;
    case SessionState::Stage::kProbe:
      HandleProbe(s, conn, now_ms);
      break;
    case SessionState::Stage::kAwaitTerminal:
      HandleAwait(s, conn, now_ms);
      break;
    case SessionState::Stage::kDone:
      break;
  }
}

void LoadDriver::HandleSubmit(SessionState* s, ThreadConn* conn,
                              uint64_t now_ms) {
  const SessionOp& op = s->plan->ops[s->op_index];
  serve::Request request;
  request.type = serve::RequestType::kSubmitJob;
  request.job = op.job;
  if (s->op_trace_id == 0) s->op_trace_id = trace::MintTraceId();
  request.trace_id = trace::FormatTraceId(s->op_trace_id);

  LoadMetrics::Get().submit_attempts->Add();
  Result<json::Value> result = conn->Call(request, now_ms);
  if (!result.ok()) {
    // Transport trouble: the daemon may or may not have admitted the job
    // before the connection died. Probe before resubmitting so a duplicate
    // submit cannot double-run the op.
    s->stage = SessionState::Stage::kProbe;
    s->due_ms = now_ms + static_cast<uint64_t>(options_.reconnect_backoff_ms);
    return;
  }
  const json::Value& response = *result;
  if (serve::IsOkResponse(response)) {
    LoadMetrics::Get().submits->Add();
    s->outcome.acked_ever = true;
    s->submit_ack_ns = obs::MonotonicNanos();
    s->expected_jobs += 1;
    const SessionPlan& plan = *s->plan;
    if (s->op_index + 1 < plan.ops.size() &&
        plan.ops[s->op_index + 1].kind == OpKind::kCancel &&
        !s->cancel_sent) {
      s->cancel_at_ms =
          now_ms + static_cast<uint64_t>(plan.ops[s->op_index + 1].delay_ms);
    }
    s->stage = SessionState::Stage::kAwaitTerminal;
    s->next_poll_ms =
        now_ms + static_cast<uint64_t>(options_.poll_interval_ms);
    s->due_ms = s->next_poll_ms;
    if (plan.stalled_reader && !s->stalled_stream_opened)
      OpenStalledStream(s, conn);
    return;
  }
  const long long retry_after = response.GetInt("retry_after_ms", 0);
  const std::string code = response.GetString("code");
  if (retry_after > 0) {
    LoadMetrics::Get().sheds->Add();
    s->due_ms = now_ms + static_cast<uint64_t>(retry_after);
    return;
  }
  if (code == "AlreadyExists" || code == "FailedPrecondition") {
    // AlreadyExists: a previous attempt actually landed (or an append raced
    // a not-yet-terminal session) — adopt it and let polling sort it out.
    // FailedPrecondition: transient (e.g. resume of a non-terminal
    // session); retry shortly.
    if (code == "AlreadyExists") {
      s->outcome.acked_ever = true;
      s->expected_jobs += 1;
      s->stage = SessionState::Stage::kAwaitTerminal;
      s->next_poll_ms =
          now_ms + static_cast<uint64_t>(options_.poll_interval_ms);
    }
    s->due_ms = now_ms + static_cast<uint64_t>(options_.poll_interval_ms);
    return;
  }
  // Hard rejection (InvalidArgument...): a driver/compiler bug, not a
  // server fault. Record and stop the session.
  s->Taint("driver");
  s->outcome.final_state = "failed";
  s->stage = SessionState::Stage::kDone;
}

void LoadDriver::HandleProbe(SessionState* s, ThreadConn* conn,
                             uint64_t now_ms) {
  serve::Request request;
  request.type = serve::RequestType::kPoll;
  request.session = s->plan->name;
  Result<json::Value> result = conn->Call(request, now_ms);
  if (!result.ok()) {
    s->due_ms = now_ms + static_cast<uint64_t>(options_.reconnect_backoff_ms);
    return;
  }
  const json::Value& response = *result;
  if (!serve::IsOkResponse(response)) {
    if (response.GetString("code") == "NotFound") {
      if (s->outcome.acked_ever) {
        // An acked session vanished: sync-before-ack says this cannot
        // happen. Correctness failure.
        s->outcome.lost_after_ack = true;
        s->outcome.final_state = "failed";
        s->Taint("driver");
        s->stage = SessionState::Stage::kDone;
        return;
      }
      // Never admitted: resubmit the op.
      s->stage = SessionState::Stage::kIdle;
      s->due_ms = now_ms;
      return;
    }
    s->due_ms = now_ms + static_cast<uint64_t>(options_.poll_interval_ms);
    return;
  }
  // expected_jobs counts *acked* submits; the probed op is not among them
  // yet, so the op ran iff the daemon's job count went past expected_jobs.
  const std::string state = response.GetString("state");
  const long long jobs_run = response.GetInt("jobs_run", 0);
  if (state == "queued" || state == "running") {
    // The lost submit was admitted after all; adopt it.
    s->outcome.acked_ever = true;
    s->expected_jobs += 1;
    s->stage = SessionState::Stage::kAwaitTerminal;
    s->next_poll_ms =
        now_ms + static_cast<uint64_t>(options_.poll_interval_ms);
    s->due_ms = s->next_poll_ms;
    return;
  }
  if (jobs_run > s->expected_jobs ||
      (state == "cancelled" && IsInterruptedError(response))) {
    // Terminal with the op's job completed (or interrupted mid-flight):
    // treat like a normal terminal poll.
    s->outcome.acked_ever = true;
    s->expected_jobs += 1;
    ReachTerminal(s, response, state, now_ms);
    return;
  }
  // Terminal but our op never ran (e.g. submit lost before admission):
  // resubmit it.
  s->stage = SessionState::Stage::kIdle;
  s->due_ms = now_ms;
}

void LoadDriver::HandleAwait(SessionState* s, ThreadConn* conn,
                             uint64_t now_ms) {
  if (s->cancel_at_ms != SessionState::kNoCancel && !s->cancel_sent &&
      now_ms >= s->cancel_at_ms) {
    serve::Request request;
    request.type = serve::RequestType::kCancel;
    request.session = s->plan->name;
    Result<json::Value> result = conn->Call(request, now_ms);
    // A cancel that raced the session's terminal transition (or a dead
    // connection) is fine either way; one attempt is enough, and the
    // outcome is timing-dependent from here regardless.
    (void)result;
    s->cancel_sent = true;
    s->Taint("cancel");
    LoadMetrics::Get().cancels->Add();
    s->due_ms = now_ms;
    return;
  }
  if (now_ms < s->next_poll_ms) {
    s->due_ms = s->next_poll_ms;
    return;
  }
  serve::Request request;
  request.type = serve::RequestType::kPoll;
  request.session = s->plan->name;
  const uint64_t poll_start = obs::MonotonicNanos();
  Result<json::Value> result = conn->Call(request, now_ms);
  if (!result.ok()) {
    s->next_poll_ms =
        now_ms + static_cast<uint64_t>(options_.reconnect_backoff_ms);
    s->due_ms = s->next_poll_ms;
    return;
  }
  LoadMetrics::Get().polls->Add();
  LoadMetrics::Get().poll_ns->Record(obs::MonotonicNanos() - poll_start);
  const json::Value& response = *result;
  if (!serve::IsOkResponse(response)) {
    if (response.GetString("code") == "NotFound") {
      // Acked then forgotten across a restart: durability violation.
      s->outcome.lost_after_ack = true;
      s->outcome.final_state = "failed";
      s->Taint("driver");
      s->stage = SessionState::Stage::kDone;
      return;
    }
    s->next_poll_ms =
        now_ms + static_cast<uint64_t>(options_.poll_interval_ms);
    s->due_ms = s->next_poll_ms;
    return;
  }
  const std::string state = response.GetString("state");
  if (state == "queued" || state == "running") {
    s->next_poll_ms =
        now_ms + static_cast<uint64_t>(options_.poll_interval_ms);
    s->due_ms = s->next_poll_ms;
    return;
  }
  const long long jobs_run = response.GetInt("jobs_run", 0);
  if (state == "done" && jobs_run < s->expected_jobs) {
    // Still showing the previous job's terminal state; our freshly acked
    // resume has not started yet. Keep polling.
    s->next_poll_ms =
        now_ms + static_cast<uint64_t>(options_.poll_interval_ms);
    s->due_ms = s->next_poll_ms;
    return;
  }
  ReachTerminal(s, response, state, now_ms);
}

void LoadDriver::ReachTerminal(SessionState* s, const json::Value& snapshot,
                               const std::string& state, uint64_t now_ms) {
  if (state == "cancelled" && !s->cancel_sent && IsInterruptedError(snapshot)) {
    // A daemon restart interrupted the in-flight job; the restored session
    // is resumable. Resubmit the same op to exercise recovery. The admitted
    // job sequence now depends on kill timing, so the session leaves the
    // oracle set.
    LoadMetrics::Get().interrupted->Add();
    s->Taint("interrupted");
    s->outcome.resubmitted_after_interrupt = true;
    // Sync to the daemon's count; the resubmit's ack will add the +1 for
    // the new job (double-counting here leaves the await loop polling for
    // a job count the daemon can never reach).
    s->expected_jobs = snapshot.GetInt("jobs_run", 0);
    s->stage = SessionState::Stage::kIdle;
    s->due_ms = now_ms + static_cast<uint64_t>(options_.poll_interval_ms);
    return;
  }
  if (state == "done" && s->submit_ack_ns != 0) {
    LoadMetrics::Get().submit_to_done_ns->Record(obs::MonotonicNanos() -
                                                 s->submit_ack_ns);
  }
  s->outcome.ops_completed = s->op_index + 1;
  s->outcome.final_poll = snapshot;
  s->outcome.final_state = state;
  if (state == "done") {
    // The session's trace id on the daemon is whichever submit last set it
    // — for a clean session, ours.
    s->outcome.trace_echoed =
        s->op_trace_id != 0 &&
        snapshot.GetString("trace_id") ==
            trace::FormatTraceId(s->op_trace_id);
    AdvanceOp(s, now_ms);
  } else {
    // cancelled (ours) or failed: the plan ends here by construction.
    s->stage = SessionState::Stage::kDone;
  }
}

void LoadDriver::AdvanceOp(SessionState* s, uint64_t now_ms) {
  size_t next = s->op_index + 1;
  // Cancel entries are executed against the preceding submit, never as a
  // standalone op.
  while (next < s->plan->ops.size() &&
         s->plan->ops[next].kind == OpKind::kCancel)
    ++next;
  if (next >= s->plan->ops.size()) {
    s->stage = SessionState::Stage::kDone;
    return;
  }
  s->op_index = next;
  s->stage = SessionState::Stage::kIdle;
  s->due_ms = now_ms + static_cast<uint64_t>(s->plan->ops[next].delay_ms);
  s->cancel_at_ms = SessionState::kNoCancel;
  s->submit_ack_ns = 0;
  s->op_trace_id = 0;
}

void LoadDriver::OpenStalledStream(SessionState* s, ThreadConn* conn) {
  int port = options_.port();
  if (port <= 0) return;
  auto result = serve::ClientConnection::Connect(port, options_.io_timeout_ms);
  if (!result.ok()) return;
  serve::ClientConnection stream = std::move(result).value();
  serve::Request request;
  request.type = serve::RequestType::kStream;
  request.session = s->plan->name;
  if (!stream.SendLine(request.Serialize()).ok()) return;
  // Never read: the server's output backpressure has to absorb (or drop)
  // this connection without stalling anyone else.
  conn->stalled.push_back(std::move(stream));
  s->stalled_stream_opened = true;
  LoadMetrics::Get().stalled_streams->Add();
}

json::Value LoadReport::ToJson() const {
  json::Value out = json::Value::Object();
  out.Set("sessions", outcomes.size());
  out.Set("done", done);
  out.Set("cancelled", cancelled);
  out.Set("failed", failed);
  out.Set("unfinished", unfinished);
  out.Set("submits", static_cast<long long>(submits));
  out.Set("submit_attempts", static_cast<long long>(submit_attempts));
  out.Set("sheds", static_cast<long long>(sheds));
  out.Set("polls", static_cast<long long>(polls));
  out.Set("reconnects", static_cast<long long>(reconnects));
  out.Set("cancels_sent", static_cast<long long>(cancels_sent));
  out.Set("interrupted", static_cast<long long>(interrupted));
  out.Set("lost_after_ack", static_cast<long long>(lost_after_ack));
  out.Set("stalled_streams", static_cast<long long>(stalled_streams));
  out.Set("shed_rate", shed_rate());
  out.Set("wall_seconds", wall_seconds);
  out.Set("all_terminal", all_terminal);
  out.Set("restart_recovered", restart_recovered);
  out.Set("trace_ids_echoed", trace_ids_echoed);
  out.Set("trace_checked", trace_checked);
  return out;
}

}  // namespace load
}  // namespace slicetuner
