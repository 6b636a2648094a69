#include "serve/session_manager.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/string_util.h"
#include "common/trace_context.h"
#include "core/baselines.h"
#include "core/one_shot.h"
#include "curvefit/fitter.h"
#include "curvefit/power_law.h"
#include "engine/curve_engine.h"
#include "obs/recorder.h"
#include "obs/timer.h"
#include "serve/serve_metrics.h"
#include "sim/scenario.h"
#include "sim/trace.h"

namespace slicetuner {
namespace serve {

namespace {

// Compiles a JobSpec into the scenario the session's data world is built
// from. Margins and noise floors vary deterministically across slices so
// curves differ and the optimizer has real trade-offs to make.
sim::ScenarioSpec ScenarioFromJob(const JobSpec& job) {
  sim::ScenarioSpec spec;
  spec.name = "serve/" + job.session;
  spec.num_slices = job.num_slices;
  spec.dim = 8;
  const size_t n = static_cast<size_t>(job.num_slices);
  spec.slice_margins.resize(n);
  spec.slice_label_noise.resize(n);
  spec.initial_sizes.assign(n, static_cast<size_t>(job.rows_per_slice));
  spec.costs.assign(n, 1.0);
  for (size_t s = 0; s < n; ++s) {
    spec.slice_margins[s] = 0.7 + 0.25 * static_cast<double>(s % 4);
    spec.slice_label_noise[s] = 0.04 + 0.02 * static_cast<double>(s % 3);
  }
  spec.val_per_slice = 40;
  spec.budget_schedule.assign(static_cast<size_t>(job.rounds),
                              job.budget / job.rounds);
  spec.lambda = 1.0;
  spec.seed = job.seed;
  // Small exhaustive estimation: per-slice trainings are what make the
  // curve cache's partial refit observable (K trainings per stale slice
  // instead of K x |S|).
  spec.curve_points = 3;
  spec.curve_draws = 1;
  spec.exhaustive_curves = true;
  spec.trainer_epochs = 8;
  return spec;
}

Result<BaselineKind> BaselineFromMethod(const std::string& method) {
  if (method == "uniform") return BaselineKind::kUniform;
  if (method == "water_filling") return BaselineKind::kWaterFilling;
  if (method == "proportional") return BaselineKind::kProportional;
  return Status::InvalidArgument("not a baseline method: '" + method + "'");
}

json::Value Event(const char* kind) {
  json::Value event = json::Value::Object();
  event.Set("event", kind);
  return event;
}

json::Value DoublesToJson(const std::vector<double>& values) {
  json::Value out = json::Value::Array();
  for (const double v : values) out.Append(v);
  return out;
}

std::vector<double> DoublesFromJson(const json::Value* values) {
  std::vector<double> out;
  for (const json::Value& v : values->items()) out.push_back(v.number_value());
  return out;
}

json::Value CurveJson(const CachedCurve& curve) {
  json::Value entry = json::Value::Object();
  entry.Set("slice", curve.slice);
  entry.Set("hash", engine::HexU64(curve.hash));
  entry.Set("curve", PowerLawCurveToJson(curve.estimate.curve));
  entry.Set("points", CurvePointsToJson(curve.estimate.points));
  entry.Set("reliable", curve.estimate.reliable);
  return entry;
}

// The curve cache as the engine serializes it (SerializeState shape):
// `next`'s fingerprint plus every entry of `next` that `prev` does not hold
// identically — all of them without `prev`.
json::Value CacheJson(const SessionState& next, const SessionState* prev) {
  json::Value out = json::Value::Object();
  if (next.cache_fingerprint) {
    out.Set("fingerprint", engine::HexU64(*next.cache_fingerprint));
  }
  json::Value entries = json::Value::Array();
  for (const auto& [slice, curve] : next.cache) {
    json::Value entry = CurveJson(curve);
    if (prev != nullptr) {
      const auto old = prev->cache.find(slice);
      if (old != prev->cache.end() && CurveJson(old->second) == entry) {
        continue;
      }
    }
    entries.Append(std::move(entry));
  }
  out.Set("entries", std::move(entries));
  return out;
}

// Upserts a CacheJson()-shaped document into `state`: a finish event's
// delta, a snapshot entry's full cache, or the engine's own SerializeState.
Status MergeCache(const json::Value& cache, SessionState* state) {
  if (const json::Value* fingerprint = cache.Find("fingerprint")) {
    ST_ASSIGN_OR_RETURN(state->cache_fingerprint,
                        engine::ParseHexU64(fingerprint->string_value()));
  }
  const json::Value* entries = cache.Find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return Status::InvalidArgument("curve cache has no entries array");
  }
  for (const json::Value& entry : entries->items()) {
    CachedCurve curve;
    curve.slice = static_cast<int>(entry.GetInt("slice", -1));
    if (curve.slice < 0 || curve.slice >= state->job.num_slices ||
        !entry.Has("curve") || !entry.Has("points")) {
      return Status::InvalidArgument("malformed curve cache entry: " +
                                     entry.Dump());
    }
    ST_ASSIGN_OR_RETURN(curve.hash,
                        engine::ParseHexU64(entry.GetString("hash")));
    ST_ASSIGN_OR_RETURN(curve.estimate.curve,
                        PowerLawCurveFromJson(*entry.Find("curve")));
    ST_ASSIGN_OR_RETURN(curve.estimate.points,
                        CurvePointsFromJson(*entry.Find("points")));
    curve.estimate.reliable = entry.GetBool("reliable", true);
    state->cache[curve.slice] = std::move(curve);
  }
  return Status::OK();
}

// The members a finish event and a snapshot entry share: how the last job
// closed, the counters (absolutes, so a finish record is idempotent), the
// closing curves and the curve cache (CacheJson(next, prev)).
json::Value ClosingJson(const SessionState& next, const SessionState* prev) {
  json::Value out = json::Value::Object();
  out.Set("phase", SessionPhaseName(next.phase));
  if (!next.error.empty()) out.Set("error", next.error);
  // The trace id is durable: a restart must not make the closing poll
  // forget which submit ran the last job (the load harness asserts the
  // echo across kills).
  if (next.trace_id != 0) {
    out.Set("trace_id", trace::FormatTraceId(next.trace_id));
  }
  out.Set("jobs_run", next.jobs_run);
  out.Set("rounds_completed", next.rounds_completed);
  out.Set("total_trainings", next.total_trainings);
  out.Set("last_job_trainings", next.last_job_trainings);
  out.Set("last_job_wall_seconds", next.last_job_wall_seconds);
  out.Set("next_round", next.next_round);
  if (!next.curve_b.empty()) {
    out.Set("curve_b", DoublesToJson(next.curve_b));
    out.Set("curve_a", DoublesToJson(next.curve_a));
  }
  if (next.cache_fingerprint) out.Set("cache", CacheJson(next, prev));
  return out;
}

json::Value FinishEvent(const SessionState& next, const SessionState& prev) {
  json::Value event = ClosingJson(next, &prev);
  event.Set("event", "finish");
  return event;
}

Status ApplyClosing(const json::Value& closing, SessionState* state) {
  const std::string phase = closing.GetString("phase");
  // A snapshot of a queued or running session folds to queued.
  state->phase = phase == "done"        ? SessionPhase::kDone
                 : phase == "failed"    ? SessionPhase::kFailed
                 : phase == "cancelled" ? SessionPhase::kCancelled
                                        : SessionPhase::kQueued;
  state->error = closing.GetString("error");
  state->trace_id = trace::ParseTraceId(closing.GetString("trace_id"));
  // Snapshots written before the reducer nest the counters.
  const json::Value* nested = closing.Find("counters");
  const json::Value& counters = nested != nullptr ? *nested : closing;
  state->jobs_run = static_cast<int>(counters.GetInt("jobs_run"));
  state->rounds_completed =
      static_cast<int>(counters.GetInt("rounds_completed"));
  state->total_trainings = counters.GetInt("total_trainings");
  state->last_job_trainings = counters.GetInt("last_job_trainings");
  state->last_job_wall_seconds = counters.GetDouble("last_job_wall_seconds");
  state->next_round = static_cast<int>(closing.GetInt("next_round"));
  if (closing.Has("curve_b") && closing.Has("curve_a")) {
    state->curve_b = DoublesFromJson(closing.Find("curve_b"));
    state->curve_a = DoublesFromJson(closing.Find("curve_a"));
  }
  // Journals written before the reducer carry no cache: the session then
  // restores cold, which is correct, only slower.
  if (const json::Value* cache = closing.Find("cache")) {
    return MergeCache(*cache, state);
  }
  return Status::OK();
}

// A single round's allocation to one slice is bounded by the job budget
// (kMaxBudget at unit cost), not by the much smaller append_rows cap — a
// legitimately journaled big-budget round must replay. Rounds never go
// back: replay calls BeginRound once per distinct round.
Status AddAcquire(long long round, long long slice, long long count,
                  SessionState* state) {
  const long long last_round =
      state->acquires.empty() ? -1 : state->acquires.back().round;
  if (round < last_round || slice < 0 || slice >= state->job.num_slices ||
      count <= 0 || static_cast<double>(count) > JobSpec::kMaxBudget) {
    return Status::InvalidArgument(StrFormat(
        "acquire record [%lld, %lld, %lld] out of range", round, slice,
        count));
  }
  state->acquires.push_back(
      {static_cast<int>(round), static_cast<int>(slice), count});
  state->world_built = true;
  state->next_round = std::max(state->next_round, static_cast<int>(round) + 1);
  return Status::OK();
}

}  // namespace

const char* SessionPhaseName(SessionPhase phase) {
  switch (phase) {
    case SessionPhase::kQueued:
      return "queued";
    case SessionPhase::kRunning:
      return "running";
    case SessionPhase::kDone:
      return "done";
    case SessionPhase::kCancelled:
      return "cancelled";
    case SessionPhase::kFailed:
      return "failed";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// SessionState: the durable state and its one transition function
// ---------------------------------------------------------------------------

Status Apply(SessionState* state, const json::Value& event) {
  const std::string kind = event.GetString("event");
  if (kind == "create" || kind == "world") {
    const json::Value* job = event.Find("job");
    if (job == nullptr) {
      return Status::InvalidArgument(kind + " event without a job");
    }
    ST_ASSIGN_OR_RETURN(state->job, JobSpec::FromJson(*job));
    if (kind == "create") {
      state->id = static_cast<uint64_t>(event.GetInt("id"));
      state->phase = SessionPhase::kQueued;
    } else {
      state->world_built = true;
    }
  } else if (kind == "resume") {
    state->phase = SessionPhase::kQueued;
    state->error.clear();
  } else if (kind == "acquire") {
    ST_RETURN_NOT_OK(AddAcquire(event.GetInt("round"), event.GetInt("slice"),
                                event.GetInt("n"), state));
  } else if (kind == "finish") {
    ST_RETURN_NOT_OK(ApplyClosing(event, state));
  } else if (kind == "drop") {
    state->dropped = true;
  } else {
    return Status::InvalidArgument("unknown session event '" + kind + "'");
  }
  state->seq = static_cast<uint64_t>(event.GetInt("seq")) + 1;
  return Status::OK();
}

json::Value SessionState::ToJson() const {
  json::Value out = ClosingJson(*this, nullptr);
  out.Set("name", name);
  out.Set("id", static_cast<long long>(id));
  out.Set("seq", static_cast<long long>(seq));
  out.Set("job", job.ToJson());
  out.Set("world_built", world_built);
  json::Value items = json::Value::Array();
  for (const AcquireRecord& record : acquires) {
    json::Value item = json::Value::Array();
    item.Append(record.round);
    item.Append(record.slice);
    item.Append(record.count);
    items.Append(std::move(item));
  }
  out.Set("acquires", std::move(items));
  return out;
}

Result<SessionState> SessionState::FromJson(const json::Value& entry) {
  SessionState state;
  state.name = entry.GetString("name");
  state.id = static_cast<uint64_t>(entry.GetInt("id"));
  state.seq = static_cast<uint64_t>(entry.GetInt("seq"));
  const json::Value* job = entry.Find("job");
  if (job == nullptr) {
    return Status::InvalidArgument("session state for '" + state.name +
                                   "' has no job");
  }
  ST_ASSIGN_OR_RETURN(state.job, JobSpec::FromJson(*job));
  state.world_built = entry.GetBool("world_built", false);
  ST_RETURN_NOT_OK(ApplyClosing(entry, &state));
  if (const json::Value* acquires = entry.Find("acquires")) {
    if (!acquires->is_array()) {
      return Status::InvalidArgument("session acquires must be an array");
    }
    for (const json::Value& item : acquires->items()) {
      if (!item.is_array() || item.size() != 3) {
        return Status::InvalidArgument(
            "acquire record must be [round, slice, n]");
      }
      ST_RETURN_NOT_OK(AddAcquire(item.at(0).int_value(),
                                  item.at(1).int_value(),
                                  item.at(2).int_value(), &state));
    }
  }
  return state;
}

// ---------------------------------------------------------------------------
// TuningSession
// ---------------------------------------------------------------------------

TuningSession::TuningSession(uint64_t id, JobSpec job,
                             store::DurableStore* store)
    : id_(id), name_(job.session), store_(store), pending_job_(job) {
  enqueued_ns_.store(obs::MonotonicNanos(), std::memory_order_relaxed);
  // No other thread can see the session yet, but CommitLocked documents a
  // mu_ requirement, so honor it.
  std::lock_guard<std::mutex> lock(mu_);
  state_.name = name_;
  json::Value event = Event("create");
  event.Set("job", job.ToJson());
  CommitLocked(std::move(event));
}

void TuningSession::CommitLocked(json::Value event) {
  event.Set("session", name_);
  event.Set("id", static_cast<long long>(id_));
  event.Set("seq", static_cast<long long>(state_.seq));
  // Live events are well-formed by construction; failing here is a bug.
  ST_CHECK_OK(Apply(&state_, event));
  if (store_ == nullptr) return;
  const Status appended = store_->Append(event);
  if (!appended.ok()) {
    // Serving keeps going on a sick disk; durability degrades, correctness
    // of the live session does not.
    ST_LOG(Warning) << "journal append failed for session '" << name_
                    << "': " << appended.ToString();
  }
}

void TuningSession::LogDropped() {
  std::lock_guard<std::mutex> lock(mu_);
  CommitLocked(Event("drop"));
}

void TuningSession::RequestCancel() {
  cancel_requested_.store(true, std::memory_order_relaxed);
}

SessionPhase TuningSession::PhaseLocked() const {
  return job_.running ? SessionPhase::kRunning : state_.phase;
}

SessionPhase TuningSession::phase() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PhaseLocked();
}

bool TuningSession::Terminal() const {
  const SessionPhase p = phase();
  return p != SessionPhase::kQueued && p != SessionPhase::kRunning;
}

bool TuningSession::WaitTerminal(int timeout_ms) const {
  std::unique_lock<std::mutex> lock(mu_);
  return phase_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms), [this] {
        return !job_.running && state_.phase != SessionPhase::kQueued;
      });
}

size_t TuningSession::FrameCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_.size();
}

json::Value TuningSession::FrameAt(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= frames_.size()) return json::Value();
  return frames_[index];
}

Status TuningSession::last_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_status_;
}

long long TuningSession::last_job_trainings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.last_job_trainings;
}

double TuningSession::last_job_wall_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.last_job_wall_seconds;
}

json::Value TuningSession::TraceTree() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_trace_tree_;
}

json::Value TuningSession::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Value out = json::Value::Object();
  out.Set("session", name_);
  out.Set("state", SessionPhaseName(PhaseLocked()));
  const uint64_t trace_id = trace_id_.load(std::memory_order_relaxed);
  if (trace_id != 0) {
    out.Set("trace_id", trace::FormatTraceId(trace_id));
  }
  out.Set("jobs_run", state_.jobs_run);
  out.Set("rounds_completed", state_.rounds_completed + job_.rounds);
  out.Set("frames", frames_.size());
  out.Set("rows", rows_);
  out.Set("model_trainings", state_.total_trainings + job_.trainings);
  out.Set("last_job_trainings", state_.last_job_trainings);
  out.Set("last_job_wall_seconds", state_.last_job_wall_seconds);
  if (!last_status_.ok()) out.Set("error", last_status_.ToString());
  if (!state_.curve_b.empty()) {
    json::Value curves = json::Value::Object();
    curves.Set("b", DoublesToJson(state_.curve_b));
    curves.Set("a", DoublesToJson(state_.curve_a));
    out.Set("curves", std::move(curves));
  }
  if (has_cache_stats_) {
    json::Value cache = json::Value::Object();
    cache.Set("estimate_calls", cache_stats_.estimate_calls);
    cache.Set("served_from_cache", cache_stats_.served_from_cache);
    cache.Set("full_runs", cache_stats_.full_runs);
    cache.Set("partial_refits", cache_stats_.partial_refits);
    cache.Set("slices_refit", cache_stats_.slices_refit);
    cache.Set("slices_reused", cache_stats_.slices_reused);
    cache.Set("trainings_saved", cache_stats_.trainings_saved);
    out.Set("curve_cache", std::move(cache));
  }
  return out;
}

Status TuningSession::Resume(JobSpec job) {
  std::lock_guard<std::mutex> lock(mu_);
  const SessionPhase phase = PhaseLocked();
  if (phase == SessionPhase::kQueued || phase == SessionPhase::kRunning) {
    return Status::AlreadyExists("session '" + name_ + "' is busy (" +
                                 SessionPhaseName(phase) + ")");
  }
  // An omitted slice count inherits the session's; an explicit one must
  // match (the data world is fixed at creation).
  const int existing =
      tuner_ != nullptr ? tuner_->num_slices() : pending_job_.num_slices;
  if (job.num_slices == 0) {
    job.num_slices = existing;
  } else if (job.num_slices != existing) {
    return Status::InvalidArgument(StrFormat(
        "session '%s' holds %d slices; resubmission asks for %d",
        name_.c_str(), existing, job.num_slices));
  }
  if (job.append_slice >= job.num_slices) {
    return Status::OutOfRange(
        StrFormat("submit_job: append_slice %d outside [0, %d)",
                  job.append_slice, job.num_slices));
  }
  pending_job_ = std::move(job);
  cancel_requested_.store(false, std::memory_order_relaxed);
  enqueued_ns_.store(obs::MonotonicNanos(), std::memory_order_relaxed);
  frames_.clear();
  json::Value event = Event("resume");
  event.Set("job", pending_job_.ToJson());
  CommitLocked(std::move(event));
  return Status::OK();
}

Status TuningSession::RunJob(const std::function<void()>& on_resolved) {
  JobSpec job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (PhaseLocked() != SessionPhase::kQueued) {
      return Status::FailedPrecondition(
          "RunJob on session '" + name_ + "' in state " +
          SessionPhaseName(PhaseLocked()));
    }
    if (cancel_requested_.load(std::memory_order_relaxed)) {
      last_status_ = Status::Cancelled("cancelled before start");
      // This job ran nothing, so it has no tree; the previous job's tree
      // must not answer for it (its done frame would carry another trace).
      last_trace_tree_ = json::Value();
      SessionState next = state_;
      next.phase = SessionPhase::kCancelled;
      next.error = last_status_.ToString();
      next.trace_id = trace_id_.load(std::memory_order_relaxed);
      CommitLocked(FinishEvent(next, state_));
      ServeMetrics::Get().jobs_cancelled->Add();
      if (on_resolved) on_resolved();
      phase_cv_.notify_all();
      return last_status_;
    }
    job_ = Progress();
    job_.running = true;
    job_.next_round = state_.next_round;
    job = pending_job_;
    job_round_spans_.clear();
  }
  // The dispatcher thread enters the trace the submit started: everything
  // the job touches from here — logs, recorder events, store appends —
  // carries the submit's trace id.
  trace::TraceScope trace_scope(trace_id_.load(std::memory_order_relaxed),
                                name_);
  const uint64_t queue_wait_ns =
      obs::MonotonicNanos() - enqueued_ns_.load(std::memory_order_relaxed);
  ServeMetrics::Get().queue_wait_ns->Record(queue_wait_ns);
  obs::Recorder::Global().RecordHere(obs::EventKind::kJobStart,
                                     static_cast<int64_t>(queue_wait_ns));

  // One measurement of the job feeds serve_stage_ns{stage="run"},
  // last_job_wall_seconds, the tree's total_ms and the job_done event.
  obs::ScopedTimer run_timer(ServeMetrics::Get().run_ns);
  const Status status = ExecuteJob(job);
  const uint64_t run_ns = run_timer.Stop();
  // Read the engine's counters and cache while no estimation is running
  // (tuner_ is only touched from this thread); polls then read the copy
  // without touching the engine lock.
  engine::CurveEngineStats cache_stats;
  json::Value engine_cache;
  if (tuner_ != nullptr) {
    cache_stats = tuner_->curve_engine().stats();
    engine_cache = tuner_->curve_engine().SerializeState();
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ServeMetrics& metrics = ServeMetrics::Get();
    metrics.submit_to_done_ns->Record(
        obs::MonotonicNanos() -
        enqueued_ns_.load(std::memory_order_relaxed));
    last_status_ = status;
    SessionState next = state_;
    if (status.ok()) {
      next.phase = SessionPhase::kDone;
      metrics.jobs_done->Add();
    } else if (status.code() == StatusCode::kCancelled) {
      next.phase = SessionPhase::kCancelled;
      metrics.jobs_cancelled->Add();
    } else {
      next.phase = SessionPhase::kFailed;
      metrics.jobs_failed->Add();
    }
    next.error = status.ok() ? std::string() : status.ToString();
    next.trace_id = trace_id_.load(std::memory_order_relaxed);
    ++next.jobs_run;
    next.rounds_completed += job_.rounds;
    next.total_trainings += job_.trainings;
    next.last_job_trainings = job_.trainings;
    next.last_job_wall_seconds = static_cast<double>(run_ns) / 1e9;
    next.next_round = job_.next_round;
    if (!job_.curve_b.empty()) {
      next.curve_b = std::move(job_.curve_b);
      next.curve_a = std::move(job_.curve_a);
    }
    if (tuner_ != nullptr) {
      cache_stats_ = cache_stats;
      has_cache_stats_ = true;
      ST_CHECK_OK(MergeCache(engine_cache, &next));
    }
    // The finish event carries only the cache entries this job changed.
    CommitLocked(FinishEvent(next, state_));
    const uint64_t closing_ns = job_.closing_ns;
    job_ = Progress();
    // Fold the job's round spans into the span tree the done frame (and
    // poll) hand back: the per-round Spans become children of the job, and
    // the closing estimate (not a round) is its own closing_ms.
    json::Value tree = json::Value::Object();
    tree.Set("name", "job");
    tree.Set("trace_id", trace::FormatTraceId(
                             trace_id_.load(std::memory_order_relaxed)));
    tree.Set("total_ms", obs::NanosToMillis(run_ns));
    tree.Set("queue_wait_ms", obs::NanosToMillis(queue_wait_ns));
    json::Value rounds = json::Value::Array();
    for (json::Value& span : job_round_spans_) {
      rounds.Append(std::move(span));
    }
    job_round_spans_.clear();
    tree.Set("rounds", std::move(rounds));
    tree.Set("closing_ms", obs::NanosToMillis(closing_ns));
    last_trace_tree_ = std::move(tree);
    if (on_resolved) on_resolved();
    phase_cv_.notify_all();
  }
  obs::Recorder::Global().RecordHere(obs::EventKind::kJobDone,
                                     static_cast<int64_t>(run_ns));
  // Group commit: one fsync makes the whole job's records (acquires +
  // finish) durable together.
  if (store_ != nullptr) {
    const Status synced = store_->Sync();
    if (!synced.ok()) {
      ST_LOG(Warning) << "journal sync failed for session '" << name_
                      << "': " << synced.ToString();
    }
  }
  return status;
}

Status TuningSession::BuildWorld(const JobSpec& job) {
  const sim::ScenarioSpec spec = ScenarioFromJob(job);
  ST_RETURN_NOT_OK(spec.Validate());
  auto source = std::make_unique<sim::ScriptedSource>(spec);

  SliceTunerOptions options;
  options.model_spec = spec.BuildModelSpec();
  options.trainer = spec.BuildTrainer();
  options.curve_options = spec.BuildCurveOptions(/*num_threads=*/1);
  options.lambda = spec.lambda;
  options.cache_curves = true;
  ST_ASSIGN_OR_RETURN(
      SliceTuner tuner,
      SliceTuner::Create(source->GenerateInitial(),
                         source->GenerateValidation(), job.num_slices,
                         std::move(options)));
  auto owned = std::make_unique<SliceTuner>(std::move(tuner));
  std::lock_guard<std::mutex> lock(mu_);
  source_ = std::move(source);
  tuner_ = std::move(owned);
  rows_ = static_cast<long long>(tuner_->train().size());
  return Status::OK();
}

Status TuningSession::ExecuteJob(const JobSpec& job) {
  if (tuner_ == nullptr) {
    ST_RETURN_NOT_OK(BuildWorld(job));
    std::lock_guard<std::mutex> lock(mu_);
    // The world is a pure function of the job that built it — which is the
    // creation job, unless the session was cancelled before ever running
    // and re-armed with different parameters. Journal the job actually
    // used so recovery replays the right world.
    json::Value event = Event("world");
    event.Set("job", job.ToJson());
    CommitLocked(std::move(event));
  } else if (job.append_rows > 0) {
    // Incremental update: new rows for one slice arrive with the
    // resubmission. Only that slice's content hash changes, so the next
    // estimation partially refits instead of running cold.
    const int round = job_.next_round;
    source_->BeginRound(round);
    const Dataset batch = source_->Acquire(
        job.append_slice, static_cast<size_t>(job.append_rows));
    ST_RETURN_NOT_OK(tuner_->AppendTrainingData(batch));
    std::lock_guard<std::mutex> lock(mu_);
    // The append consumed this round index's acquisition stream; advance so
    // the job's first round draws fresh examples instead of replaying the
    // exact draws that produced the appended rows (BeginRound re-seeds as a
    // pure function of (seed, round)).
    ++job_.next_round;
    rows_ = static_cast<long long>(tuner_->train().size());
    json::Value event = Event("acquire");
    event.Set("round", round);
    event.Set("slice", job.append_slice);
    event.Set("n", job.append_rows);
    CommitLocked(std::move(event));
  }
  return RunRounds(job);
}

Status TuningSession::RunRounds(const JobSpec& job) {
  const double round_budget = job.budget / job.rounds;
  const std::vector<double> costs =
      CostVector(source_->cost(), job.num_slices);
  const bool curve_based = job.method == "moderate";

  for (int r = 0; r < job.rounds; ++r) {
    if (cancel_requested_.load(std::memory_order_relaxed)) {
      return Status::Cancelled(StrFormat(
          "session '%s' cancelled after %d of %d rounds", name_.c_str(), r,
          job.rounds));
    }
    source_->BeginRound(job_.next_round);
    obs::Recorder::Global().RecordHere(obs::EventKind::kRoundStart,
                                       job_.next_round);

    // One span per round: each stage's one timer feeds its stage of the
    // span, its serve_round_stage_ns histogram and (plan, acquire) its
    // recorder event; the summary rides the round's progress frame.
    obs::ScopedTimer round_timer;
    obs::Span round_span("round");
    sim::RoundTrace round;
    round.round = job_.next_round;
    round.budget = round_budget;

    std::vector<long long> allocation;
    if (curve_based) {
      CurveEstimationResult curves;
      {
        obs::ScopedTimer estimate_timer(ServeMetrics::Get().round_estimate_ns,
                                        std::nullopt, &round_span, "estimate");
        ST_ASSIGN_OR_RETURN(curves, tuner_->EstimateCurves());
      }
      round.model_trainings = curves.model_trainings;
      round.curve_b.reserve(curves.slices.size());
      round.curve_a.reserve(curves.slices.size());
      for (const SliceCurveEstimate& slice : curves.slices) {
        round.curve_b.push_back(slice.curve.b);
        round.curve_a.push_back(slice.curve.a);
      }
      OneShotPlan plan;
      {
        obs::ScopedTimer plan_timer(ServeMetrics::Get().round_plan_ns,
                                    obs::EventKind::kPlan, &round_span, "plan");
        ST_ASSIGN_OR_RETURN(
            plan,
            PlanOneShotWithCurves(curves.slices, tuner_->SliceSizes(), costs,
                                  round_budget, tuner_->options().lambda));
      }
      allocation = std::move(plan.examples);
    } else {
      ST_ASSIGN_OR_RETURN(const BaselineKind kind,
                          BaselineFromMethod(job.method));
      ST_ASSIGN_OR_RETURN(
          allocation,
          BaselineAllocation(kind, tuner_->SliceSizes(), costs,
                             round_budget));
    }

    {
      obs::ScopedTimer acquire_timer(ServeMetrics::Get().round_acquire_ns,
                                     obs::EventKind::kAcquire, &round_span,
                                     "acquire");
      for (size_t s = 0; s < allocation.size(); ++s) {
        if (allocation[s] <= 0) continue;
        const Dataset batch = source_->Acquire(
            static_cast<int>(s), static_cast<size_t>(allocation[s]));
        ST_RETURN_NOT_OK(tuner_->AppendTrainingData(batch));
        round.spent += static_cast<double>(allocation[s]) * costs[s];
      }
    }
    round.acquired = std::move(allocation);
    const std::vector<size_t> sizes = tuner_->SliceSizes();
    round.sizes.reserve(sizes.size());
    for (const size_t size : sizes) {
      round.sizes.push_back(static_cast<long long>(size));
    }

    json::Value frame;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++job_.rounds;
      job_.trainings += round.model_trainings;
      rows_ = static_cast<long long>(tuner_->train().size());
      frame = ProgressFrame(name_, frames_.size(),
                            sim::RoundTraceToJson(round));
      json::Value span_json = round_span.ToJson(round_timer.Stop());
      span_json.Set("round", round.round);
      job_round_spans_.push_back(span_json);
      frame.Set("span", std::move(span_json));
      frames_.push_back(frame);
      // Commit the round's acquisitions in slice order — the order the
      // batches consumed the round's draw stream, which recovery must
      // replay exactly.
      for (size_t s = 0; s < round.acquired.size(); ++s) {
        if (round.acquired[s] <= 0) continue;
        json::Value event = Event("acquire");
        event.Set("round", round.round);
        event.Set("slice", s);
        event.Set("n", round.acquired[s]);
        CommitLocked(std::move(event));
      }
      ++job_.next_round;
    }
  }

  // Closing estimate on the final data. Besides giving the client curves
  // that reflect everything acquired, this brings the curve cache up to
  // date with the session's resting state — so a resubmission that appends
  // rows to one slice finds every *other* slice already cached and rides
  // the engine's partial refit instead of a cold estimation.
  if (curve_based) {
    obs::ScopedTimer closing_timer(ServeMetrics::Get().closing_estimate_ns);
    const Result<CurveEstimationResult> closing = tuner_->EstimateCurves();
    const uint64_t closing_ns = closing_timer.Stop();
    ST_RETURN_NOT_OK(closing.status());
    const CurveEstimationResult& curves = *closing;
    std::lock_guard<std::mutex> lock(mu_);
    job_.closing_ns = closing_ns;
    job_.trainings += curves.model_trainings;
    for (const SliceCurveEstimate& slice : curves.slices) {
      job_.curve_b.push_back(slice.curve.b);
      job_.curve_a.push_back(slice.curve.a);
    }
  }
  return Status::OK();
}

json::Value TuningSession::DurableState() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.ToJson();
}

json::Value TuningSession::RestingState() const {
  std::lock_guard<std::mutex> lock(mu_);
  // The tuner may only be walked while no job runs: RunJob marks the job
  // running under mu_ before touching it.
  if (job_.running || tuner_ == nullptr) return json::Value();
  json::Value out = json::Value::Object();
  out.Set("data_hash",
          engine::HexU64(engine::HashDatasetContent(tuner_->train())));
  out.Set("curve_cache", tuner_->curve_engine().SerializeState());
  return out;
}

Result<std::unique_ptr<TuningSession>> TuningSession::Restore(
    SessionState state, store::DurableStore* store, size_t* warm_slices) {
  if (warm_slices != nullptr) *warm_slices = 0;
  // Constructed without the store so nothing is journaled during replay;
  // the store is attached at the end for future events.
  auto session = std::unique_ptr<TuningSession>(
      new TuningSession(state.id, state.job, /*store=*/nullptr));
  if (state.world_built) {
    ST_RETURN_NOT_OK(session->BuildWorld(state.job));
    // Replay the acquire log in order: each batch is re-derived from the
    // deterministic source, so the training rows come back bit-identical
    // without a single model training. BeginRound re-anchors the round's
    // draw stream, so it runs once per round — repeating it would replay
    // the round's first draws instead of continuing them.
    int round = -1;
    for (const AcquireRecord& record : state.acquires) {
      if (record.round != round) {
        round = record.round;
        session->source_->BeginRound(round);
      }
      ST_RETURN_NOT_OK(session->tuner_->AppendTrainingData(
          session->source_->Acquire(record.slice,
                                    static_cast<size_t>(record.count))));
    }
    session->rows_ =
        static_cast<long long>(session->tuner_->train().size());
    // Install the curve cache. Every entry is validated against the content
    // hash of the rows just replayed; entries that no longer match (rows
    // acquired after the job that fitted them) stay cold and re-fit on the
    // next estimate.
    if (state.cache_fingerprint) {
      ST_ASSIGN_OR_RETURN(
          const size_t warm,
          session->tuner_->RestoreCurveCache(CacheJson(state, nullptr)));
      if (warm_slices != nullptr) *warm_slices = warm;
    }
  }
  if (state.phase == SessionPhase::kQueued) {
    // Queued or running when the state was captured: it comes back
    // cancelled and resumable.
    state.phase = SessionPhase::kCancelled;
    state.error = "interrupted by restart";
  }
  session->last_status_ =
      state.phase == SessionPhase::kFailed      ? Status::Internal(state.error)
      : state.phase == SessionPhase::kCancelled ? Status::Cancelled(state.error)
                                                : Status::OK();
  session->trace_id_.store(state.trace_id, std::memory_order_relaxed);
  session->state_ = std::move(state);
  session->store_ = store;
  return session;
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

Result<TuningSession*> SessionManager::Register(const JobSpec& job,
                                                bool* created) {
  if (created != nullptr) *created = false;
  ST_RETURN_NOT_OK(job.Validate());
  std::lock_guard<std::mutex> lock(mu_);
  if (restoring_names_.count(job.session) != 0) {
    // A restore pass is rebuilding this name right now; shed the submit
    // with a retryable rejection rather than racing the rebuild.
    ServeMetrics::Get().shed_restoring->Add();
    return Status::ResourceExhausted("session '" + job.session +
                                     "' is being restored; retry shortly");
  }
  for (const auto& session : sessions_) {
    if (session->name() != job.session) continue;
    ST_RETURN_NOT_OK(session->Resume(job));
    ++stats_.resumed;
    if (store_ != nullptr) (void)store_->Sync();  // resume event durable
    return session.get();
  }
  JobSpec resolved = job;
  if (resolved.num_slices == 0) {
    resolved.num_slices = JobSpec::kDefaultNumSlices;
  }
  if (resolved.append_slice >= resolved.num_slices) {
    return Status::OutOfRange(
        StrFormat("submit_job: append_slice %d outside [0, %d)",
                  resolved.append_slice, resolved.num_slices));
  }
  sessions_.push_back(
      std::make_unique<TuningSession>(next_id_++, resolved, store_));
  ++stats_.created;
  ServeMetrics::Get().sessions->Set(static_cast<double>(sessions_.size()));
  if (store_ != nullptr) (void)store_->Sync();  // create event durable
  if (created != nullptr) *created = true;
  return sessions_.back().get();
}

void SessionManager::Drop(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if ((*it)->id() != id) continue;
    --stats_.created;  // the session never became visible to clients
    // Recovery must not resurrect the never-admitted name.
    (*it)->LogDropped();
    if (store_ != nullptr) (void)store_->Sync();
    sessions_.erase(it);
    ServeMetrics::Get().sessions->Set(static_cast<double>(sessions_.size()));
    return;
  }
}

TuningSession* SessionManager::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& session : sessions_) {
    if (session->name() == name) return session.get();
  }
  return nullptr;
}

TuningSession* SessionManager::FindById(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& session : sessions_) {
    if (session->id() == id) return session.get();
  }
  return nullptr;
}

Status SessionManager::Cancel(const std::string& name) {
  TuningSession* session = Find(name);
  if (session == nullptr) {
    return Status::NotFound("unknown session '" + name + "'");
  }
  if (session->Terminal()) {
    return Status::FailedPrecondition(
        "session '" + name + "' already finished (" +
        SessionPhaseName(session->phase()) + ")");
  }
  session->RequestCancel();
  return Status::OK();
}

size_t SessionManager::active_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t active = 0;
  for (const auto& session : sessions_) {
    const SessionPhase p = session->phase();
    if (p == SessionPhase::kQueued || p == SessionPhase::kRunning) ++active;
  }
  return active;
}

size_t SessionManager::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

void SessionManager::RecordOutcome(const Status& status) {
  std::function<void()> callback;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (status.ok()) {
      ++stats_.completed;
    } else if (status.code() == StatusCode::kCancelled) {
      ++stats_.cancelled;
    } else {
      ++stats_.failed;
    }
    callback = job_finished_callback_;
  }
  // Outside the lock: the callback reaches into store maintenance, which
  // may itself be mid-checkpoint calling DurableSnapshot (needs mu_).
  if (callback) callback();
}

void SessionManager::SetJobFinishedCallback(std::function<void()> callback) {
  std::lock_guard<std::mutex> lock(mu_);
  job_finished_callback_ = std::move(callback);
}

SessionManagerStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

json::Value SessionManager::StatsJson() const {
  const SessionManagerStats s = stats();
  json::Value out = json::Value::Object();
  out.Set("sessions", session_count());
  out.Set("active", active_count());
  out.Set("created", s.created);
  out.Set("resumed", s.resumed);
  out.Set("completed", s.completed);
  out.Set("cancelled", s.cancelled);
  out.Set("failed", s.failed);
  out.Set("restored", s.restored);
  return out;
}

// ---------------------------------------------------------------------------
// Durability: snapshot + journal-tail recovery
// ---------------------------------------------------------------------------

json::Value RestoreReport::ToJson() const {
  json::Value out = json::Value::Object();
  out.Set("sessions_restored", sessions_restored);
  out.Set("sessions_skipped", sessions_skipped);
  out.Set("sessions_dropped", sessions_dropped);
  out.Set("sessions_failed", sessions_failed);
  out.Set("warm_slices", warm_slices);
  out.Set("journal_records_applied", journal_records_applied);
  out.Set("tail_truncated", tail_truncated);
  return out;
}

void SessionManager::AttachStore(store::DurableStore* store) {
  std::lock_guard<std::mutex> lock(mu_);
  store_ = store;
}

json::Value SessionManager::DurableSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Value out = json::Value::Object();
  out.Set("format", "slicetuner-serve-state");
  out.Set("version", 1);
  out.Set("next_id", static_cast<long long>(next_id_));
  json::Value sessions = json::Value::Array();
  for (const auto& session : sessions_) {
    sessions.Append(session->DurableState());
  }
  out.Set("sessions", std::move(sessions));
  return out;
}

Result<RestoreReport> SessionManager::RestoreFromState(
    const store::RecoveredState& state, store::DurableStore* store,
    bool skip_existing) {
  RestoreReport report;
  report.tail_truncated = state.tail_truncated;

  // Fold base: the snapshot's session entries, in snapshot order. A fold
  // that fails (an undecodable entry or record) keeps its status, and only
  // that session is skipped below.
  struct Folded {
    SessionState state;
    Status status;
  };
  std::vector<Folded> merged;
  std::unordered_map<std::string, size_t> index;
  long long next_id = 1;
  if (state.snapshot.is_object()) {
    next_id = state.snapshot.GetInt("next_id", 1);
    if (const json::Value* sessions = state.snapshot.Find("sessions")) {
      // Names are claimed serially (the first entry of a name wins); the
      // entries then decode across the pool into their fold slots.
      std::vector<const json::Value*> entries;
      for (const json::Value& entry : sessions->items()) {
        if (!entry.is_object()) continue;
        const std::string name = entry.GetString("name");
        if (name.empty() || !index.emplace(name, entries.size()).second) {
          continue;
        }
        entries.push_back(&entry);
      }
      merged.resize(entries.size());
      ParallelFor(entries.size(), [&entries, &merged](size_t i) {
        const json::Value& entry = *entries[i];
        Result<SessionState> parsed = SessionState::FromJson(entry);
        Folded& folded = merged[i];
        folded.status = parsed.status();
        if (parsed.ok()) folded.state = std::move(*parsed);
        // An undecodable entry keeps its name and id, so it is claimed,
        // counted as failed, and its name released below.
        folded.state.name = entry.GetString("name");
        folded.state.id = static_cast<uint64_t>(entry.GetInt("id"));
      });
    }
  }

  // Roll the journal tail forward. Each session's per-event sequence
  // numbers say which records its snapshot entry already covers. Session
  // names are reused across incarnations (a shed submit is dropped, the
  // retry recreates the name) and ids are monotone: a record of an older
  // incarnation than the entry's is stale, and only a create with a newer
  // id starts the name over. The id allocator resumes past every id the
  // journal shows, dropped incarnations included, as the live one did.
  for (const json::Value& record : state.tail) {
    const std::string name = record.GetString("session");
    const long long seq = record.GetInt("seq", -1);
    if (name.empty() || seq < 0) continue;
    const uint64_t id = static_cast<uint64_t>(record.GetInt("id", 0));
    next_id = std::max(next_id, static_cast<long long>(id) + 1);
    auto found = index.find(name);
    if (found == index.end() || id > merged[found->second].state.id) {
      if (record.GetString("event") != "create") continue;
      // The incarnation registered after every session folded so far, so
      // it takes the last place, as it did in the live registry. The older
      // incarnation was never admitted (only a dropped name is recreated):
      // it folds as dropped even if its drop record did not survive.
      if (found != index.end()) merged[found->second].state.dropped = true;
      found = index.insert_or_assign(name, merged.size()).first;
      merged.emplace_back();
      merged.back().state.name = name;
      merged.back().state.id = id;
    }
    Folded& entry = merged[found->second];
    if (id < entry.state.id) continue;
    // Covered by the snapshot, or the fold already failed.
    if (static_cast<uint64_t>(seq) < entry.state.seq || !entry.status.ok()) {
      continue;
    }
    entry.status = Apply(&entry.state, record);
    ++report.journal_records_applied;
  }

  // Claim the names this pass will materialize. Until a name is released
  // below, Register sheds submits for it (ResourceExhausted; the server
  // attaches a retry hint) and a concurrent restore pass leaves it alone —
  // so a submit arriving while `restore` runs under load can neither race
  // the rebuild nor create a duplicate session.
  struct Claim {
    Folded* entry;
    std::string name;
    Result<std::unique_ptr<TuningSession>> session =
        Status::Internal("session was not rebuilt");
    size_t warm_slices = 0;
  };
  std::vector<Claim> claims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::unordered_set<std::string> live;
    if (skip_existing) {
      for (const auto& session : sessions_) live.insert(session->name());
    }
    for (Folded& entry : merged) {
      const std::string& name = entry.state.name;
      if (entry.state.dropped) {
        ++report.sessions_dropped;
        continue;
      }
      // The create event never became durable; there is nothing to rebuild.
      if (entry.state.id == 0) continue;
      if (restoring_names_.count(name) != 0 || live.count(name) != 0) {
        // Live already, or another concurrent restore pass owns the name.
        ++report.sessions_skipped;
        continue;
      }
      restoring_names_.insert(name);
      claims.push_back({&entry, name});
    }
  }
  if (restore_hook_) restore_hook_();

  // Rebuild. Each session's rebuild reads only its own folded state, so
  // the rebuilds fan out across the shared pool into per-claim slots. The
  // loop is nestable: the `restore` verb runs it on an event-loop worker
  // while jobs hold pool workers.
  ParallelFor(claims.size(), [&claims, store](size_t i) {
    Claim& claim = claims[i];
    claim.session =
        claim.entry->status.ok()
            ? TuningSession::Restore(std::move(claim.entry->state), store,
                                     &claim.warm_slices)
            : Result<std::unique_ptr<TuningSession>>(claim.entry->status);
  });

  // Publish serially in fold order, so the registry order, the id
  // allocator and the snapshot bytes are the same at every lane count. An
  // empty recovery still adopts the snapshot's id allocator, and the
  // claimed names become submittable again (restored ones as live
  // sessions, failed ones as fresh creates).
  std::lock_guard<std::mutex> lock(mu_);
  for (Claim& claim : claims) {
    restoring_names_.erase(claim.name);
    if (!claim.session.ok()) {
      // One undecodable session must not take down recovery of the rest.
      ST_LOG(Warning) << "could not restore session '" << claim.name
                      << "': " << claim.session.status().ToString();
      ++report.sessions_failed;
      continue;
    }
    next_id_ = std::max(next_id_, (*claim.session)->id() + 1);
    sessions_.push_back(std::move(*claim.session));
    ++stats_.restored;
    ++report.sessions_restored;
    report.warm_slices += claim.warm_slices;
  }
  next_id_ = std::max(next_id_, static_cast<uint64_t>(next_id));
  ServeMetrics::Get().sessions->Set(static_cast<double>(sessions_.size()));
  return report;
}

void SessionManager::SetRestoreHookForTesting(std::function<void()> hook) {
  restore_hook_ = std::move(hook);
}

}  // namespace serve
}  // namespace slicetuner
