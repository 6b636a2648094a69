#include "oracle.h"

#include <chrono>

namespace perfbench {

using slicetuner::Result;
using slicetuner::Status;
using slicetuner::json::Value;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::string CompareClosing(const Value& daemon, const Value& oracle) {
  for (const char* key : {"rows", "rounds_completed", "jobs_run"}) {
    const long long got = daemon.GetInt(key, -1);
    const long long want = oracle.GetInt(key, -1);
    if (got != want) {
      return std::string(key) + ": daemon=" + std::to_string(got) +
             " oracle=" + std::to_string(want);
    }
  }
  const Value* got_curves = daemon.Find("curves");
  const Value* want_curves = oracle.Find("curves");
  if ((got_curves == nullptr) != (want_curves == nullptr)) {
    return "curves: present on one side only";
  }
  if (got_curves == nullptr) return "";
  for (const char* coeff : {"b", "a"}) {
    const Value* got = got_curves->Find(coeff);
    const Value* want = want_curves->Find(coeff);
    if (got == nullptr || want == nullptr || got->size() != want->size()) {
      return std::string("curves.") + coeff + ": arity mismatch";
    }
    for (size_t i = 0; i < got->size(); ++i) {
      // Exact: the daemon's JSON writer round-trips doubles losslessly.
      if (got->at(i).number_value() != want->at(i).number_value()) {
        return std::string("curves.") + coeff + "[" + std::to_string(i) +
               "]: daemon=" + got->at(i).Dump() +
               " oracle=" + want->at(i).Dump();
      }
    }
  }
  return "";
}

Result<std::vector<Value>> ReplayFresh(
    const std::vector<slicetuner::serve::JobSpec>& jobs) {
  if (jobs.empty()) return Status::InvalidArgument("no jobs to replay");
  slicetuner::serve::JobSpec creation = jobs[0];
  if (creation.num_slices == 0) {
    creation.num_slices = slicetuner::serve::JobSpec::kDefaultNumSlices;
  }
  slicetuner::serve::TuningSession session(/*id=*/1, creation);
  std::vector<Value> snapshots;
  ST_RETURN_NOT_OK(session.RunJob());
  snapshots.push_back(session.Snapshot());
  for (size_t i = 1; i < jobs.size(); ++i) {
    ST_RETURN_NOT_OK(session.Resume(jobs[i]));
    ST_RETURN_NOT_OK(session.RunJob());
    snapshots.push_back(session.Snapshot());
  }
  return snapshots;
}

Result<Recovery> Recover(const std::string& dir) {
  Recovery recovery;
  auto start = std::chrono::steady_clock::now();
  ST_ASSIGN_OR_RETURN(recovery.store,
                      slicetuner::store::DurableStore::Open(dir));
  recovery.open_ms = MillisSince(start);
  recovery.sessions = std::make_unique<slicetuner::serve::SessionManager>();
  start = std::chrono::steady_clock::now();
  // No journal target: the replayed appends need the daemon's math, not
  // its durability, and journaling would only add fsyncs to the check.
  ST_ASSIGN_OR_RETURN(recovery.report,
                      recovery.sessions->RestoreFromState(
                          recovery.store->recovered(), /*store=*/nullptr,
                          /*skip_existing=*/false));
  recovery.restore_ms = MillisSince(start);
  const Value snapshot = recovery.sessions->DurableSnapshot();
  if (const Value* sessions = snapshot.Find("sessions")) {
    for (const Value& entry : sessions->items()) {
      if (const Value* job = entry.Find("job")) {
        recovery.slices += static_cast<size_t>(job->GetInt("num_slices", 0));
      }
    }
  }
  return recovery;
}

Result<Value> RunAppend(Recovery* recovery,
                        const slicetuner::serve::JobSpec& job) {
  slicetuner::serve::TuningSession* session =
      recovery->sessions->Find(job.session);
  if (session == nullptr) {
    return Status::NotFound("session '" + job.session + "' not recovered");
  }
  ST_RETURN_NOT_OK(session->Resume(job));
  ST_RETURN_NOT_OK(session->RunJob());
  return session->Snapshot();
}

}  // namespace perfbench
