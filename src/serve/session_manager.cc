#include "serve/session_manager.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/trace_context.h"
#include "core/baselines.h"
#include "core/one_shot.h"
#include "obs/recorder.h"
#include "obs/span.h"
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

TuningSession::TuningSession(uint64_t id, JobSpec job,
                             store::DurableStore* store)
    : id_(id),
      name_(job.session),
      store_(store),
      creation_job_(job),
      pending_job_(std::move(job)) {
  enqueued_ns_.store(obs::MonotonicNanos(), std::memory_order_relaxed);
  // No other thread can see the session yet, but LogEventLocked documents
  // a mu_ requirement, so honor it.
  std::lock_guard<std::mutex> lock(mu_);
  json::Value event = json::Value::Object();
  event.Set("event", "create");
  event.Set("job", creation_job_.ToJson());
  LogEventLocked(std::move(event));
}

void TuningSession::LogEventLocked(json::Value event) {
  if (store_ == nullptr) return;
  event.Set("session", name_);
  event.Set("id", static_cast<long long>(id_));
  event.Set("seq", static_cast<long long>(events_logged_++));
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
  json::Value event = json::Value::Object();
  event.Set("event", "drop");
  LogEventLocked(std::move(event));
}

void TuningSession::RequestCancel() {
  cancel_requested_.store(true, std::memory_order_relaxed);
}

SessionPhase TuningSession::phase() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phase_;
}

bool TuningSession::Terminal() const {
  const SessionPhase p = phase();
  return p == SessionPhase::kDone || p == SessionPhase::kCancelled ||
         p == SessionPhase::kFailed;
}

bool TuningSession::WaitTerminal(int timeout_ms) const {
  std::unique_lock<std::mutex> lock(mu_);
  return phase_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            [this] {
                              return phase_ == SessionPhase::kDone ||
                                     phase_ == SessionPhase::kCancelled ||
                                     phase_ == SessionPhase::kFailed;
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
  return last_job_trainings_;
}

double TuningSession::last_job_wall_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_job_wall_seconds_;
}

json::Value TuningSession::TraceTree() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_trace_tree_;
}

json::Value TuningSession::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Value out = json::Value::Object();
  out.Set("session", name_);
  out.Set("state", SessionPhaseName(phase_));
  const uint64_t trace_id = trace_id_.load(std::memory_order_relaxed);
  if (trace_id != 0) {
    out.Set("trace_id", trace::FormatTraceId(trace_id));
  }
  out.Set("jobs_run", jobs_run_);
  out.Set("rounds_completed", rounds_completed_);
  out.Set("frames", frames_.size());
  out.Set("rows", rows_);
  out.Set("model_trainings", total_trainings_);
  out.Set("last_job_trainings", last_job_trainings_);
  out.Set("last_job_wall_seconds", last_job_wall_seconds_);
  if (!last_status_.ok()) out.Set("error", last_status_.ToString());
  if (!final_curve_b_.empty()) {
    json::Value curves = json::Value::Object();
    json::Value b = json::Value::Array();
    json::Value a = json::Value::Array();
    for (const double v : final_curve_b_) b.Append(v);
    for (const double v : final_curve_a_) a.Append(v);
    curves.Set("b", std::move(b));
    curves.Set("a", std::move(a));
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
  if (phase_ == SessionPhase::kQueued || phase_ == SessionPhase::kRunning) {
    return Status::AlreadyExists("session '" + name_ + "' is busy (" +
                                 SessionPhaseName(phase_) + ")");
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
  phase_ = SessionPhase::kQueued;
  json::Value event = json::Value::Object();
  event.Set("event", "resume");
  event.Set("job", pending_job_.ToJson());
  LogEventLocked(std::move(event));
  return Status::OK();
}

Status TuningSession::RunJob(const std::function<void()>& on_resolved) {
  JobSpec job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (phase_ != SessionPhase::kQueued) {
      return Status::FailedPrecondition(
          "RunJob on session '" + name_ + "' in state " +
          SessionPhaseName(phase_));
    }
    if (cancel_requested_.load(std::memory_order_relaxed)) {
      phase_ = SessionPhase::kCancelled;
      last_status_ = Status::Cancelled("cancelled before start");
      ServeMetrics::Get().jobs_cancelled->Add();
      if (on_resolved) on_resolved();
      phase_cv_.notify_all();
      return last_status_;
    }
    phase_ = SessionPhase::kRunning;
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

  Stopwatch timer;
  const long long trainings_before = [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return total_trainings_;
  }();
  const Status status = [&] {
    obs::ScopedTimer run_timer(ServeMetrics::Get().run_ns);
    return ExecuteJob(job);
  }();
  const double wall = timer.ElapsedSeconds();
  // Snapshot the engine counters while no estimation is running (tuner_ is
  // only touched from this thread); polls then read the copy without
  // touching the engine lock.
  engine::CurveEngineStats cache_stats;
  const bool has_cache_stats = tuner_ != nullptr;
  if (has_cache_stats) cache_stats = tuner_->curve_engine().stats();

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (has_cache_stats) {
      cache_stats_ = cache_stats;
      has_cache_stats_ = true;
    }
    ++jobs_run_;
    last_job_wall_seconds_ = wall;
    last_job_trainings_ = total_trainings_ - trainings_before;
    last_status_ = status;
    ServeMetrics& metrics = ServeMetrics::Get();
    metrics.submit_to_done_ns->Record(
        obs::MonotonicNanos() -
        enqueued_ns_.load(std::memory_order_relaxed));
    if (status.ok()) {
      phase_ = SessionPhase::kDone;
      metrics.jobs_done->Add();
    } else if (status.code() == StatusCode::kCancelled) {
      phase_ = SessionPhase::kCancelled;
      metrics.jobs_cancelled->Add();
    } else {
      phase_ = SessionPhase::kFailed;
      metrics.jobs_failed->Add();
    }
    // Fold the job's round spans into the span tree the done frame (and
    // poll) hand back: the per-round Spans become children of the job.
    json::Value tree = json::Value::Object();
    tree.Set("name", "job");
    tree.Set("trace_id", trace::FormatTraceId(
                             trace_id_.load(std::memory_order_relaxed)));
    tree.Set("total_ms", wall * 1000.0);
    tree.Set("queue_wait_ms", static_cast<double>(queue_wait_ns) / 1e6);
    json::Value rounds = json::Value::Array();
    for (json::Value& span : job_round_spans_) {
      rounds.Append(std::move(span));
    }
    job_round_spans_.clear();
    tree.Set("rounds", std::move(rounds));
    last_trace_tree_ = std::move(tree);
    json::Value event = json::Value::Object();
    event.Set("event", "finish");
    event.Set("phase", SessionPhaseName(phase_));
    if (!last_status_.ok()) event.Set("error", last_status_.ToString());
    // The trace id is part of the session's durable state: a restart must
    // not make the closing poll forget which submit ran the last job (the
    // load harness asserts the echo on clean sessions across kills).
    const uint64_t finish_trace_id =
        trace_id_.load(std::memory_order_relaxed);
    if (finish_trace_id != 0) {
      event.Set("trace_id", trace::FormatTraceId(finish_trace_id));
    }
    event.Set("jobs_run", jobs_run_);
    event.Set("rounds_completed", rounds_completed_);
    event.Set("total_trainings", total_trainings_);
    event.Set("last_job_trainings", last_job_trainings_);
    event.Set("last_job_wall_seconds", last_job_wall_seconds_);
    event.Set("rows", rows_);
    event.Set("next_round", next_round_index_);
    if (!final_curve_b_.empty()) {
      json::Value b = json::Value::Array();
      json::Value a = json::Value::Array();
      for (const double v : final_curve_b_) b.Append(v);
      for (const double v : final_curve_a_) a.Append(v);
      event.Set("curve_b", std::move(b));
      event.Set("curve_a", std::move(a));
    }
    LogEventLocked(std::move(event));
    if (on_resolved) on_resolved();
    phase_cv_.notify_all();
  }
  obs::Recorder::Global().RecordHere(
      obs::EventKind::kJobDone, static_cast<int64_t>(wall * 1e9));
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
    creation_job_ = job;
    json::Value event = json::Value::Object();
    event.Set("event", "world");
    event.Set("job", creation_job_.ToJson());
    LogEventLocked(std::move(event));
  } else if (job.append_rows > 0) {
    // Incremental update: new rows for one slice arrive with the
    // resubmission. Only that slice's content hash changes, so the next
    // estimation partially refits instead of running cold.
    const int round = next_round_index_;
    source_->BeginRound(round);
    const Dataset batch = source_->Acquire(
        job.append_slice, static_cast<size_t>(job.append_rows));
    // The append consumed this round index's acquisition stream; advance so
    // the job's first round draws fresh examples instead of replaying the
    // exact draws that produced the appended rows (BeginRound re-seeds as a
    // pure function of (seed, round)).
    ++next_round_index_;
    ST_RETURN_NOT_OK(tuner_->AppendTrainingData(batch));
    std::lock_guard<std::mutex> lock(mu_);
    rows_ = static_cast<long long>(tuner_->train().size());
    if (store_ != nullptr) {
      acquire_log_.push_back({round, job.append_slice, job.append_rows});
      json::Value event = json::Value::Object();
      event.Set("event", "acquire");
      event.Set("round", round);
      event.Set("slice", job.append_slice);
      event.Set("n", job.append_rows);
      LogEventLocked(std::move(event));
    }
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
    source_->BeginRound(next_round_index_);
    obs::Recorder::Global().RecordHere(obs::EventKind::kRoundStart,
                                       next_round_index_);

    // One span per round: stage timers attribute the round's wall time to
    // estimate / plan / acquire, feed the process-wide serve_round_stage_ns
    // histograms, and the summary rides the round's progress frame.
    obs::Span round_span("round");
    sim::RoundTrace round;
    round.round = next_round_index_;
    round.budget = round_budget;

    std::vector<long long> allocation;
    if (curve_based) {
      CurveEstimationResult curves;
      {
        obs::StageTimer estimate_timer(
            &round_span, "estimate", ServeMetrics::Get().round_estimate_ns);
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
        const uint64_t plan_start = obs::MonotonicNanos();
        obs::StageTimer plan_timer(&round_span, "plan",
                                   ServeMetrics::Get().round_plan_ns);
        ST_ASSIGN_OR_RETURN(
            plan,
            PlanOneShotWithCurves(curves.slices, tuner_->SliceSizes(), costs,
                                  round_budget, tuner_->options().lambda));
        obs::Recorder::Global().RecordHere(
            obs::EventKind::kPlan,
            static_cast<int64_t>(obs::MonotonicNanos() - plan_start));
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
      const uint64_t acquire_start = obs::MonotonicNanos();
      obs::StageTimer acquire_timer(&round_span, "acquire",
                                    ServeMetrics::Get().round_acquire_ns);
      for (size_t s = 0; s < allocation.size(); ++s) {
        if (allocation[s] <= 0) continue;
        const Dataset batch = source_->Acquire(
            static_cast<int>(s), static_cast<size_t>(allocation[s]));
        ST_RETURN_NOT_OK(tuner_->AppendTrainingData(batch));
        round.spent += static_cast<double>(allocation[s]) * costs[s];
      }
      obs::Recorder::Global().RecordHere(
          obs::EventKind::kAcquire,
          static_cast<int64_t>(obs::MonotonicNanos() - acquire_start));
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
      ++rounds_completed_;
      total_trainings_ += round.model_trainings;
      rows_ = static_cast<long long>(tuner_->train().size());
      frame = ProgressFrame(name_, frames_.size(),
                            sim::RoundTraceToJson(round));
      json::Value span_json = round_span.ToJson();
      span_json.Set("round", round.round);
      job_round_spans_.push_back(span_json);
      frame.Set("span", std::move(span_json));
      frames_.push_back(frame);
      if (store_ != nullptr) {
        // Journal the round's acquisitions in slice order — the order the
        // batches consumed the round's draw stream, which recovery must
        // replay exactly.
        for (size_t s = 0; s < round.acquired.size(); ++s) {
          if (round.acquired[s] <= 0) continue;
          acquire_log_.push_back(
              {round.round, static_cast<int>(s), round.acquired[s]});
          json::Value event = json::Value::Object();
          event.Set("event", "acquire");
          event.Set("round", round.round);
          event.Set("slice", s);
          event.Set("n", round.acquired[s]);
          LogEventLocked(std::move(event));
        }
      }
    }
    ++next_round_index_;
  }

  // Closing estimate on the final data. Besides giving the client curves
  // that reflect everything acquired, this brings the curve cache up to
  // date with the session's resting state — so a resubmission that appends
  // rows to one slice finds every *other* slice already cached and rides
  // the engine's partial refit instead of a cold estimation.
  if (curve_based) {
    CurveEstimationResult curves;
    {
      obs::ScopedTimer estimate_timer(ServeMetrics::Get().round_estimate_ns);
      ST_ASSIGN_OR_RETURN(curves, tuner_->EstimateCurves());
    }
    std::lock_guard<std::mutex> lock(mu_);
    total_trainings_ += curves.model_trainings;
    final_curve_b_.clear();
    final_curve_a_.clear();
    for (const SliceCurveEstimate& slice : curves.slices) {
      final_curve_b_.push_back(slice.curve.b);
      final_curve_a_.push_back(slice.curve.a);
    }
  }
  return Status::OK();
}

json::Value TuningSession::DurableState() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Value out = json::Value::Object();
  out.Set("name", name_);
  out.Set("id", static_cast<long long>(id_));
  out.Set("seq", static_cast<long long>(events_logged_));
  out.Set("phase", SessionPhaseName(phase_));
  const uint64_t trace_id_now = trace_id_.load(std::memory_order_relaxed);
  if (trace_id_now != 0) {
    out.Set("trace_id", trace::FormatTraceId(trace_id_now));
  }
  if (!last_status_.ok()) out.Set("error", last_status_.ToString());
  out.Set("job", creation_job_.ToJson());
  out.Set("world_built", tuner_ != nullptr);
  out.Set("next_round", next_round_index_);
  json::Value acquires = json::Value::Array();
  for (const AcquireRecord& record : acquire_log_) {
    json::Value item = json::Value::Array();
    item.Append(record.round);
    item.Append(record.slice);
    item.Append(record.count);
    acquires.Append(std::move(item));
  }
  out.Set("acquires", std::move(acquires));
  json::Value counters = json::Value::Object();
  counters.Set("jobs_run", jobs_run_);
  counters.Set("rounds_completed", rounds_completed_);
  counters.Set("total_trainings", total_trainings_);
  counters.Set("last_job_trainings", last_job_trainings_);
  counters.Set("last_job_wall_seconds", last_job_wall_seconds_);
  counters.Set("rows", rows_);
  out.Set("counters", std::move(counters));
  if (!final_curve_b_.empty()) {
    json::Value b = json::Value::Array();
    json::Value a = json::Value::Array();
    for (const double v : final_curve_b_) b.Append(v);
    for (const double v : final_curve_a_) a.Append(v);
    out.Set("curve_b", std::move(b));
    out.Set("curve_a", std::move(a));
  }
  // The tuner (and its curve cache) may only be walked while no job runs.
  // Under mu_ with a non-running phase that is guaranteed: RunJob's first
  // transition to kRunning takes mu_, so it cannot start while we hold it.
  if (phase_ != SessionPhase::kRunning && tuner_ != nullptr) {
    out.Set("resting", tuner_->SerializeResting());
  }
  return out;
}

Result<std::unique_ptr<TuningSession>> TuningSession::Restore(
    const json::Value& state, store::DurableStore* store,
    size_t* warm_slices) {
  if (warm_slices != nullptr) *warm_slices = 0;
  if (!state.is_object()) {
    return Status::InvalidArgument("session state must be an object");
  }
  const json::Value* job_json = state.Find("job");
  if (job_json == nullptr) {
    return Status::InvalidArgument("session state for '" +
                                   state.GetString("name") +
                                   "' has no job");
  }
  ST_ASSIGN_OR_RETURN(const JobSpec job, JobSpec::FromJson(*job_json));
  const uint64_t id = static_cast<uint64_t>(state.GetInt("id", 0));
  // Constructed without the store so nothing is journaled during replay;
  // the store is attached at the end for future events.
  auto session = std::unique_ptr<TuningSession>(
      new TuningSession(id, job, /*store=*/nullptr));

  int last_replayed_round = -1;
  if (state.GetBool("world_built", false)) {
    ST_RETURN_NOT_OK(session->BuildWorld(job));
    // Replay the acquire log in order: each batch is re-derived from the
    // deterministic source, so the training rows come back bit-identical
    // without a single model training.
    if (const json::Value* acquires = state.Find("acquires")) {
      if (!acquires->is_array()) {
        return Status::InvalidArgument("session acquires must be an array");
      }
      for (const json::Value& item : acquires->items()) {
        if (!item.is_array() || item.size() != 3) {
          return Status::InvalidArgument(
              "acquire record must be [round, slice, n]");
        }
        const long long round = item.at(0).int_value();
        const long long slice = item.at(1).int_value();
        const long long count = item.at(2).int_value();
        // A single round's allocation to one slice is bounded by the job
        // budget (kMaxBudget at unit cost), not by the much smaller
        // append_rows cap — a legitimately journaled big-budget round
        // must replay.
        if (round < last_replayed_round || slice < 0 ||
            slice >= job.num_slices || count <= 0 ||
            static_cast<double>(count) > JobSpec::kMaxBudget) {
          return Status::InvalidArgument(StrFormat(
              "acquire record [%lld, %lld, %lld] out of range", round,
              slice, count));
        }
        // BeginRound re-anchors the round's draw stream, so it must run
        // once per round — repeating it would replay the round's first
        // draws instead of continuing them.
        if (round != last_replayed_round) {
          session->source_->BeginRound(static_cast<int>(round));
          last_replayed_round = static_cast<int>(round);
        }
        const Dataset batch = session->source_->Acquire(
            static_cast<int>(slice), static_cast<size_t>(count));
        ST_RETURN_NOT_OK(session->tuner_->AppendTrainingData(batch));
        session->acquire_log_.push_back({static_cast<int>(round),
                                         static_cast<int>(slice), count});
      }
    }
    session->rows_ =
        static_cast<long long>(session->tuner_->train().size());
    // Install the fitted-curve cache. Every entry is validated against the
    // content hash of the rows just replayed; entries that no longer match
    // (rows acquired after the snapshot, lost journal tail) silently stay
    // cold and re-fit on the next estimate.
    if (const json::Value* resting = state.Find("resting")) {
      ST_ASSIGN_OR_RETURN(const size_t warm,
                          session->tuner_->RestoreCurveCache(*resting));
      if (warm_slices != nullptr) *warm_slices = warm;
    }
  }

  if (const json::Value* counters = state.Find("counters")) {
    session->jobs_run_ = static_cast<int>(counters->GetInt("jobs_run"));
    session->rounds_completed_ =
        static_cast<int>(counters->GetInt("rounds_completed"));
    session->total_trainings_ = counters->GetInt("total_trainings");
    session->last_job_trainings_ = counters->GetInt("last_job_trainings");
    session->last_job_wall_seconds_ =
        counters->GetDouble("last_job_wall_seconds");
  }
  session->next_round_index_ =
      std::max(static_cast<int>(state.GetInt("next_round", 0)),
               last_replayed_round + 1);
  if (const json::Value* b = state.Find("curve_b")) {
    for (const json::Value& v : b->items()) {
      session->final_curve_b_.push_back(v.number_value());
    }
  }
  if (const json::Value* a = state.Find("curve_a")) {
    for (const json::Value& v : a->items()) {
      session->final_curve_a_.push_back(v.number_value());
    }
  }

  const std::string phase = state.GetString("phase");
  const std::string error = state.GetString("error");
  if (phase == "done") {
    session->phase_ = SessionPhase::kDone;
  } else if (phase == "failed") {
    session->phase_ = SessionPhase::kFailed;
    session->last_status_ =
        Status::Internal(error.empty() ? "restored failed session" : error);
  } else {
    // cancelled — or a session that was queued/running when the state was
    // captured: it comes back cancelled and resumable.
    session->phase_ = SessionPhase::kCancelled;
    session->last_status_ = Status::Cancelled(
        error.empty() ? "interrupted by restart" : error);
  }
  session->events_logged_ = static_cast<uint64_t>(state.GetInt("seq", 0));
  session->trace_id_.store(
      trace::ParseTraceId(state.GetString("trace_id")),
      std::memory_order_relaxed);
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

namespace {

// Advances one merged session-state document by one journal record. The
// state documents are DurableState()-shaped; events carry deltas
// (acquires) or absolutes (finish counters), so applying each tail record
// on top of the snapshot entry reproduces the pre-crash state.
void ApplyJournalRecord(json::Value* entry, const json::Value& record) {
  const std::string event = record.GetString("event");
  if (event == "create") {
    entry->Set("id", record.GetInt("id"));
    if (const json::Value* job = record.Find("job")) {
      entry->Set("job", *job);
    }
    entry->Set("phase", "queued");
  } else if (event == "world") {
    if (const json::Value* job = record.Find("job")) {
      entry->Set("job", *job);
    }
    entry->Set("world_built", true);
  } else if (event == "resume") {
    entry->Set("phase", "queued");
  } else if (event == "acquire") {
    json::Value acquires = json::Value::Array();
    if (const json::Value* existing = entry->Find("acquires")) {
      acquires = *existing;
    }
    json::Value item = json::Value::Array();
    item.Append(record.GetInt("round"));
    item.Append(record.GetInt("slice"));
    item.Append(record.GetInt("n"));
    acquires.Append(std::move(item));
    entry->Set("acquires", std::move(acquires));
    entry->Set("world_built", true);
  } else if (event == "finish") {
    entry->Set("phase", record.GetString("phase"));
    if (record.Has("error")) {
      entry->Set("error", record.GetString("error"));
    }
    if (record.Has("trace_id")) {
      entry->Set("trace_id", record.GetString("trace_id"));
    }
    json::Value counters = json::Value::Object();
    counters.Set("jobs_run", record.GetInt("jobs_run"));
    counters.Set("rounds_completed", record.GetInt("rounds_completed"));
    counters.Set("total_trainings", record.GetInt("total_trainings"));
    counters.Set("last_job_trainings", record.GetInt("last_job_trainings"));
    counters.Set("last_job_wall_seconds",
                 record.GetDouble("last_job_wall_seconds"));
    counters.Set("rows", record.GetInt("rows"));
    entry->Set("counters", std::move(counters));
    entry->Set("next_round", record.GetInt("next_round"));
    if (const json::Value* b = record.Find("curve_b")) {
      entry->Set("curve_b", *b);
    }
    if (const json::Value* a = record.Find("curve_a")) {
      entry->Set("curve_a", *a);
    }
    entry->Set("world_built", true);
  } else if (event == "drop") {
    entry->Set("dropped", true);
  }
}

}  // namespace

Result<RestoreReport> SessionManager::RestoreFromState(
    const store::RecoveredState& state, store::DurableStore* store,
    bool skip_existing) {
  RestoreReport report;
  report.tail_truncated = state.tail_truncated;

  // Merge base: the snapshot's session entries, in snapshot order.
  std::vector<std::pair<std::string, json::Value>> merged;
  auto find_merged = [&merged](const std::string& name) -> json::Value* {
    for (auto& pair : merged) {
      if (pair.first == name) return &pair.second;
    }
    return nullptr;
  };
  long long next_id = 1;
  if (state.snapshot.is_object()) {
    next_id = state.snapshot.GetInt("next_id", 1);
    if (const json::Value* sessions = state.snapshot.Find("sessions")) {
      for (const json::Value& entry : sessions->items()) {
        if (!entry.is_object()) continue;
        const std::string name = entry.GetString("name");
        if (name.empty() || find_merged(name) != nullptr) continue;
        merged.emplace_back(name, entry);
      }
    }
  }

  // Roll the journal tail forward. Each session's per-event sequence
  // numbers say which records its snapshot entry already covers. Session
  // names can be reused across incarnations (a shed submit is dropped,
  // the retry recreates the name with a fresh id): a create record whose
  // id differs from the merged entry's starts the name over, so a stale
  // drop flag or a higher old seq cannot swallow the new session.
  for (const json::Value& record : state.tail) {
    const std::string name = record.GetString("session");
    if (name.empty()) continue;
    const long long seq = record.GetInt("seq", -1);
    if (seq < 0) continue;
    json::Value* entry = find_merged(name);
    if (entry == nullptr) {
      json::Value fresh = json::Value::Object();
      fresh.Set("name", name);
      fresh.Set("seq", 0);
      merged.emplace_back(name, std::move(fresh));
      entry = &merged.back().second;
    } else if (record.GetString("event") == "create" &&
               record.GetInt("id", -1) != entry->GetInt("id", -1)) {
      json::Value fresh = json::Value::Object();
      fresh.Set("name", name);
      fresh.Set("seq", 0);
      *entry = std::move(fresh);
    }
    if (seq < entry->GetInt("seq", 0)) continue;  // covered by the snapshot
    ApplyJournalRecord(entry, record);
    entry->Set("seq", seq + 1);
    ++report.journal_records_applied;
  }

  // Claim the names this pass will materialize. Until a name is released
  // below, Register sheds submits for it (ResourceExhausted; the server
  // attaches a retry hint) and a concurrent restore pass leaves it alone —
  // so a submit arriving while `restore` runs under load can neither race
  // the rebuild nor create a duplicate session.
  std::unordered_set<std::string> claimed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& pair : merged) {
      const json::Value& entry = pair.second;
      if (entry.GetBool("dropped", false) || !entry.Has("job")) continue;
      if (restoring_names_.count(pair.first) != 0) continue;
      bool live = false;
      for (const auto& session : sessions_) {
        if (session->name() == pair.first) {
          live = true;
          break;
        }
      }
      if (skip_existing && live) continue;
      restoring_names_.insert(pair.first);
      claimed.insert(pair.first);
    }
  }
  if (restore_hook_) restore_hook_();

  // Materialize.
  for (auto& pair : merged) {
    const std::string& name = pair.first;
    json::Value& entry = pair.second;
    if (entry.GetBool("dropped", false)) {
      ++report.sessions_dropped;
      continue;
    }
    if (!entry.Has("job")) {
      // The create event never became durable; there is nothing to rebuild.
      continue;
    }
    if (claimed.count(name) == 0) {
      // Live already, or another concurrent restore pass owns the name.
      ++report.sessions_skipped;
      continue;
    }
    size_t warm = 0;
    Result<std::unique_ptr<TuningSession>> restored =
        TuningSession::Restore(entry, store, &warm);
    if (!restored.ok()) {
      // One undecodable session must not take down recovery of the rest.
      ST_LOG(Warning) << "could not restore session '" << name
                      << "': " << restored.status().ToString();
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      next_id_ = std::max(
          {next_id_, static_cast<uint64_t>(next_id), (*restored)->id() + 1});
      sessions_.push_back(std::move(*restored));
      ++stats_.restored;
      ServeMetrics::Get().sessions->Set(
          static_cast<double>(sessions_.size()));
    }
    ++report.sessions_restored;
    report.warm_slices += warm;
  }
  // An empty recovery still adopts the snapshot's id allocator, and the
  // claimed names become submittable again (restored ones as live
  // sessions, failed ones as fresh creates).
  {
    std::lock_guard<std::mutex> lock(mu_);
    next_id_ = std::max(next_id_, static_cast<uint64_t>(next_id));
    for (const std::string& name : claimed) restoring_names_.erase(name);
  }
  return report;
}

void SessionManager::SetRestoreHookForTesting(std::function<void()> hook) {
  restore_hook_ = std::move(hook);
}

}  // namespace serve
}  // namespace slicetuner
