#include "engine/experiment_runner.h"

#include <utility>

#include "common/parallel_for.h"
#include "common/stopwatch.h"

namespace slicetuner {
namespace engine {

const char* SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kQueued:
      return "queued";
    case SessionState::kRunning:
      return "running";
    case SessionState::kSucceeded:
      return "succeeded";
    case SessionState::kFailed:
      return "failed";
    case SessionState::kCancelled:
      return "cancelled";
  }
  return "?";
}

ExperimentRunner::ExperimentRunner(Options options)
    : options_(std::move(options)) {}

size_t ExperimentRunner::SubmitJob(Job job) {
  size_t id;
  std::string name;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    id = jobs_.size();
    name = job.name;
    jobs_.push_back(std::move(job));
  }
  Emit(SessionEvent{id, name, SessionState::kQueued, 0.0, ""});
  return id;
}

size_t ExperimentRunner::num_sessions() const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  return jobs_.size();
}

size_t ExperimentRunner::Submit(SessionSpec spec) {
  Job job;
  job.name = std::move(spec.name);
  job.run = [config = std::move(spec.config), method = spec.method]() {
    return RunMethod(config, method);
  };
  return SubmitJob(std::move(job));
}

size_t ExperimentRunner::Submit(std::string name, ExperimentConfig config,
                                Method method) {
  SessionSpec spec;
  spec.name = std::move(name);
  spec.config = std::move(config);
  spec.method = method;
  return Submit(std::move(spec));
}

size_t ExperimentRunner::SubmitTask(std::string name,
                                    std::function<Status()> fn) {
  Job job;
  job.name = std::move(name);
  job.run = [fn = std::move(fn)]() -> Result<MethodOutcome> {
    ST_RETURN_NOT_OK(fn());
    return MethodOutcome{};
  };
  return SubmitJob(std::move(job));
}

void ExperimentRunner::Emit(const SessionEvent& event) {
  if (!options_.on_event) return;
  std::lock_guard<std::mutex> lock(mu_);
  options_.on_event(event);
}

void ExperimentRunner::RunSession(size_t id, const Job& job,
                                  SessionResult* result) {
  result->name = job.name;
  bool cancelled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled = cancelled_;
  }
  if (cancelled) {
    result->status = Status::Cancelled("session cancelled before it started");
    Emit(SessionEvent{id, job.name, SessionState::kCancelled, 0.0,
                      result->status.ToString()});
    return;
  }
  Emit(SessionEvent{id, job.name, SessionState::kRunning, 0.0, ""});

  Stopwatch timer;
  // A throwing body must still resolve its session in-band: escaping the
  // ParallelFor lane would stop the loop handing out indices and leave the
  // rest of the run unresolved.
  Status status;
  try {
    Result<MethodOutcome> outcome = job.run();
    status = outcome.status();
    if (outcome.ok()) result->outcome = std::move(outcome).value();
  } catch (const std::exception& e) {
    status = Status::Internal("session \"" + job.name + "\" threw: " +
                              e.what());
  } catch (...) {
    status = Status::Internal("session \"" + job.name +
                              "\" threw a non-std exception");
  }
  result->status = status;
  result->wall_seconds = timer.ElapsedSeconds();
  if (status.ok()) {
    Emit(SessionEvent{id, job.name, SessionState::kSucceeded,
                      result->wall_seconds, ""});
    return;
  }
  if (options_.cancel_on_failure) {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
  }
  Emit(SessionEvent{id, job.name, SessionState::kFailed, result->wall_seconds,
                    status.ToString()});
}

std::vector<SessionResult> ExperimentRunner::RunAll() {
  // Snapshot the queue: sessions submitted while this run is in flight are
  // deferred to the next RunAll (see the header contract). The copy also
  // keeps job bodies stable if the jobs_ vector reallocates under a
  // concurrent Submit.
  std::vector<Job> snapshot;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    snapshot = jobs_;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = false;
  }

  std::vector<SessionResult> results(snapshot.size());
  ParallelOptions parallel;
  parallel.num_threads = options_.max_concurrent_sessions;
  ParallelFor(
      snapshot.size(),
      [&](size_t id) { RunSession(id, snapshot[id], &results[id]); },
      parallel);
  return results;
}

}  // namespace engine
}  // namespace slicetuner
