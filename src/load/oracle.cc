#include "load/oracle.h"

#include <mutex>
#include <unordered_map>

#include "common/parallel_for.h"
#include "serve/session_manager.h"

namespace slicetuner {
namespace load {

namespace {

// Keys compared exactly between the daemon's final poll and the replay
// snapshot. Deliberately excluded: wall-clock fields, frame counts
// (streams do not survive restarts), and the cost-accounting side —
// curve-cache statistics and model_trainings — because a restart empties
// the warm slice cache, so a post-restart append pays a full refit where
// the oracle pays a partial one: more trainings, identical curves. The
// oracle's contract is the *estimates*, not the work done to reach them.
const char* const kIntKeys[] = {"rows", "rounds_completed", "jobs_run"};

// Replays one clean session's op sequence in-process and returns the
// closing snapshot.
Result<json::Value> ReplaySession(const SessionPlan& plan) {
  serve::TuningSession session(/*id=*/1, plan.ops[0].job);
  Status status = session.RunJob();
  if (!status.ok()) return status;
  for (size_t i = 1; i < plan.ops.size(); ++i) {
    if (plan.ops[i].kind != OpKind::kAppend) continue;
    ST_RETURN_NOT_OK(session.Resume(plan.ops[i].job));
    ST_RETURN_NOT_OK(session.RunJob());
  }
  return session.Snapshot();
}

// First differing field between the two snapshots; empty when they agree
// on every compared key.
std::string FirstDiff(const json::Value& daemon, const json::Value& oracle) {
  for (const char* key : kIntKeys) {
    const long long got = daemon.GetInt(key, -1);
    const long long want = oracle.GetInt(key, -1);
    if (got != want)
      return std::string(key) + ": daemon=" + std::to_string(got) +
             " oracle=" + std::to_string(want);
  }
  const json::Value* got_curves = daemon.Find("curves");
  const json::Value* want_curves = oracle.Find("curves");
  if ((got_curves == nullptr) != (want_curves == nullptr))
    return "curves: present on one side only";
  if (got_curves != nullptr && *got_curves != *want_curves) {
    // Narrow to the first differing coefficient for the report.
    for (const char* coeff : {"b", "a"}) {
      const json::Value* g = got_curves->Find(coeff);
      const json::Value* w = want_curves->Find(coeff);
      if (g == nullptr || w == nullptr || g->size() != w->size())
        return std::string("curves.") + coeff + ": arity mismatch";
      for (size_t i = 0; i < g->size(); ++i) {
        if (g->at(i) != w->at(i))
          return std::string("curves.") + coeff + "[" + std::to_string(i) +
                 "]: daemon=" + g->at(i).Dump() +
                 " oracle=" + w->at(i).Dump();
      }
    }
    return "curves: structural mismatch";
  }
  return "";
}

}  // namespace

json::Value OracleReport::ToJson() const {
  json::Value out = json::Value::Object();
  out.Set("checked", checked);
  out.Set("skipped", skipped);
  out.Set("mismatched", mismatched);
  out.Set("covers_clean", covers_clean);
  json::Value details = json::Value::Array();
  for (const auto& m : mismatches) details.Append(m);
  out.Set("mismatches", std::move(details));
  return out;
}

OracleReport VerifyAgainstOracle(const Workload& workload,
                                 const LoadReport& report) {
  std::unordered_map<std::string, const SessionPlan*> plans;
  for (const auto& plan : workload.sessions) plans[plan.name] = &plan;

  struct Item {
    const SessionPlan* plan;
    const SessionOutcome* outcome;
  };
  std::vector<Item> eligible;
  OracleReport oracle;
  for (const auto& outcome : report.outcomes) {
    auto it = plans.find(outcome.name);
    if (it == plans.end() || outcome.tainted ||
        outcome.final_state != "done") {
      ++oracle.skipped;
      if (!outcome.tainted || (outcome.taint_reason != "cancel" &&
                               outcome.taint_reason != "interrupted")) {
        oracle.covers_clean = false;
      }
      continue;
    }
    eligible.push_back({it->second, &outcome});
  }

  std::vector<std::string> diffs(eligible.size());
  ParallelFor(eligible.size(), [&](size_t i) {
    const Item& item = eligible[i];
    Result<json::Value> replay = ReplaySession(*item.plan);
    if (!replay.ok()) {
      diffs[i] = item.plan->name + ": replay failed: " +
                 replay.status().ToString();
      return;
    }
    const std::string diff = FirstDiff(item.outcome->final_poll, *replay);
    if (!diff.empty()) diffs[i] = item.plan->name + ": " + diff;
  });

  oracle.checked = eligible.size();
  for (auto& diff : diffs) {
    if (diff.empty()) continue;
    ++oracle.mismatched;
    if (oracle.mismatches.size() < 16)
      oracle.mismatches.push_back(std::move(diff));
  }
  return oracle;
}

}  // namespace load
}  // namespace slicetuner
