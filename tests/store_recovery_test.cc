// Serving-level crash-recovery tests: sessions journaled and snapshotted
// through store::DurableStore must come back warm after a restart. The
// acceptance check of the durable-state tentpole is the equivalence suite:
// after snapshot + journal replay, an append_rows resubmission refits only
// the touched slices with training counts identical to the no-restart path,
// and closing curve estimates are bit-identical to a never-restarted
// session's.

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/fs_util.h"
#include "common/string_util.h"
#include "gtest/gtest.h"
#include "serve/session_manager.h"
#include "store/store.h"

namespace slicetuner {
namespace serve {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/store_recovery_" + name;
  const Result<std::vector<std::string>> files = ListDirFiles(dir);
  if (files.ok()) {
    for (const std::string& file : *files) {
      (void)RemoveFile(dir + "/" + file);
    }
  }
  ST_CHECK_OK(MkDirRecursive(dir));
  return dir;
}

JobSpec ColdJob(const std::string& session) {
  JobSpec job;
  job.session = session;
  job.num_slices = 4;
  job.rows_per_slice = 60;
  job.budget = 40.0;
  job.rounds = 1;
  job.method = "moderate";
  job.seed = 5;
  return job;
}

JobSpec AppendJob(const std::string& session) {
  JobSpec job = ColdJob(session);
  job.append_rows = 60;
  job.append_slice = 2;
  return job;
}

TuningSession* MustRegisterAndRun(SessionManager* manager,
                                  const JobSpec& job) {
  const Result<TuningSession*> session = manager->Register(job);
  ST_CHECK_OK(session.status());
  ST_CHECK_OK((*session)->RunJob());
  return *session;
}

std::string CurvesDump(const TuningSession& session) {
  const json::Value snapshot = session.Snapshot();
  const json::Value* curves = snapshot.Find("curves");
  return curves == nullptr ? std::string() : curves->Dump();
}

// Content hash of the session's resting training data. Empty when the
// session has no data world yet.
std::string DataHash(const TuningSession& session) {
  return session.RestingState().GetString("data_hash");
}

// Snapshots every session of `manager` through the store's one checkpoint
// path.
void Checkpoint(store::DurableStore* store, const SessionManager& manager) {
  ST_CHECK_OK(store
                  ->CheckpointOnline(
                      [&manager] { return manager.DurableSnapshot(); },
                      /*retain_snapshots=*/1)
                  .status());
}

// The headline guarantee. Control: one manager runs cold job + append job
// with no restarts. Durable: an identical cold job runs against a store,
// the manager is torn down, a second manager recovers from disk and runs
// the identical append job. The warm path must match the control exactly:
// same training count (only the touched slices refit) and bit-identical
// closing curves.
TEST(StoreRecoveryTest, WarmRestartEquivalence) {
  // --- control: never restarted ---
  SessionManager control;
  TuningSession* control_session = MustRegisterAndRun(&control, ColdJob("s"));
  const long long control_cold_trainings =
      control_session->last_job_trainings();
  const std::string control_cold_hash = DataHash(*control_session);
  MustRegisterAndRun(&control, AppendJob("s"));
  const long long control_warm_trainings =
      control_session->last_job_trainings();
  const std::string control_curves = CurvesDump(*control_session);
  const std::string control_final_hash = DataHash(*control_session);
  ASSERT_FALSE(control_curves.empty());
  // The append path must itself be incremental, otherwise "warm" is
  // meaningless (mirrors serve_test's partial-refit assertion).
  ASSERT_LT(control_warm_trainings, control_cold_trainings);

  // --- durable: cold job, snapshot, restart ---
  const std::string dir = FreshDir("equivalence");
  long long durable_cold_trainings = 0;
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    TuningSession* session = MustRegisterAndRun(&manager, ColdJob("s"));
    durable_cold_trainings = session->last_job_trainings();
    Checkpoint(store->get(), manager);
  }
  EXPECT_EQ(durable_cold_trainings, control_cold_trainings);

  // --- restart: recover, then run the identical append job ---
  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);
  EXPECT_EQ(report->warm_slices, 4u) << "all slices should restore hot";

  TuningSession* restored = recovered.Find("s");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->phase(), SessionPhase::kDone);
  EXPECT_EQ(restored->last_job_trainings(), control_cold_trainings);
  // The replay reconstructed the resting rows bit-identically.
  EXPECT_EQ(DataHash(*restored), control_cold_hash);

  ST_CHECK_OK(recovered.Register(AppendJob("s")).status());
  ST_CHECK_OK(restored->RunJob());

  // Warm-restart equivalence: training counts identical to the no-restart
  // path (only the touched slices refit)...
  EXPECT_EQ(restored->last_job_trainings(), control_warm_trainings);
  // ...closing estimates bit-identical to the never-restarted session...
  EXPECT_EQ(CurvesDump(*restored), control_curves);
  // ...and therefore identical allocations: the post-job data agrees too.
  EXPECT_EQ(DataHash(*restored), control_final_hash);

  const json::Value snapshot = restored->Snapshot();
  EXPECT_EQ(snapshot.GetInt("jobs_run"), 2);
  const json::Value* cache = snapshot.Find("curve_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->GetInt("partial_refits"), 1)
      << "the restored cache must serve the untouched slices";
  EXPECT_GT(cache->GetInt("slices_reused"), 0);
}

// Recovery with no snapshot at all: the journal tail alone (create, world,
// acquire, finish events) must rebuild the session's data world
// bit-identically, and the finish record's curve-cache delta brings it
// back warm — the next append job matches a never-restarted session's
// training count and closing curves exactly.
TEST(StoreRecoveryTest, JournalOnlyRecoveryRebuildsDataExactly) {
  SessionManager control;
  TuningSession* control_session = MustRegisterAndRun(&control, ColdJob("j"));
  const std::string control_cold_hash = DataHash(*control_session);
  MustRegisterAndRun(&control, AppendJob("j"));
  const long long control_warm_trainings =
      control_session->last_job_trainings();
  const std::string control_curves = CurvesDump(*control_session);
  ASSERT_FALSE(control_cold_hash.empty());

  const std::string dir = FreshDir("journal_only");
  long long cold_rows = 0;
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    TuningSession* session = MustRegisterAndRun(&manager, ColdJob("j"));
    cold_rows = session->Snapshot().GetInt("rows");
    // No checkpoint: the journal (synced at job finish) is all there is.
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);
  EXPECT_GT(report->journal_records_applied, 0u);
  EXPECT_EQ(report->warm_slices, 4u) << "the finish record carries the cache";

  TuningSession* restored = recovered.Find("j");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->phase(), SessionPhase::kDone);
  EXPECT_EQ(restored->Snapshot().GetInt("rows"), cold_rows);
  // The replayed rows are bit-identical to the pre-crash session's.
  EXPECT_EQ(DataHash(*restored), control_cold_hash);

  ST_CHECK_OK(recovered.Register(AppendJob("j")).status());
  ST_CHECK_OK(restored->RunJob());
  EXPECT_EQ(restored->last_job_trainings(), control_warm_trainings);
  EXPECT_EQ(CurvesDump(*restored), control_curves);
}

// Journals written before finish records carried the curve-cache delta
// still fold: the session restores with its rows, counters and closing
// curves, just cold, and its next append refits more than the warm path.
TEST(StoreRecoveryTest, FinishWithoutCacheDeltaRestoresCold) {
  SessionManager control;
  TuningSession* control_session = MustRegisterAndRun(&control, ColdJob("o"));
  const std::string control_cold_hash = DataHash(*control_session);
  const std::string control_cold_curves = CurvesDump(*control_session);
  MustRegisterAndRun(&control, AppendJob("o"));
  const long long control_warm_trainings =
      control_session->last_job_trainings();

  // Journal a live session, then copy its records into a fresh directory
  // with the finish record's cache member removed.
  const std::string live_dir = FreshDir("old_finish_live");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(live_dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    MustRegisterAndRun(&manager, ColdJob("o"));
  }
  const Result<store::RecoveredState> journal = store::ReadStateDir(live_dir);
  ST_CHECK_OK(journal.status());
  const std::string dir = FreshDir("old_finish");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    bool saw_cache = false;
    for (const json::Value& record : journal->tail) {
      json::Value old_format = json::Value::Object();
      for (const auto& member : record.members()) {
        if (member.first == "cache") {
          saw_cache = true;
          continue;
        }
        old_format.Set(member.first, member.second);
      }
      ST_CHECK_OK((*store)->Append(old_format));
    }
    ST_CHECK_OK((*store)->Sync());
    ASSERT_TRUE(saw_cache) << "the live finish record should carry a cache";
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);
  EXPECT_EQ(report->warm_slices, 0u);
  TuningSession* restored = recovered.Find("o");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->phase(), SessionPhase::kDone);
  EXPECT_EQ(restored->Snapshot().GetInt("jobs_run"), 1);
  EXPECT_EQ(DataHash(*restored), control_cold_hash);
  EXPECT_EQ(CurvesDump(*restored), control_cold_curves);

  ST_CHECK_OK(recovered.Register(AppendJob("o")).status());
  ST_CHECK_OK(restored->RunJob());
  EXPECT_GT(restored->last_job_trainings(), control_warm_trainings);
}

// A snapshot taken mid-history plus journal records appended after it:
// recovery applies only the uncovered tail (per-session sequence numbers),
// ending in the same state as replaying everything.
TEST(StoreRecoveryTest, SnapshotPlusNewerJournalTailComposes) {
  const std::string dir = FreshDir("snapshot_plus_tail");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    TuningSession* session = MustRegisterAndRun(&manager, ColdJob("t"));
    Checkpoint(store->get(), manager);
    // Activity after the checkpoint lives only in the journal.
    ST_CHECK_OK(manager.Register(AppendJob("t")).status());
    ST_CHECK_OK(session->RunJob());
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);
  EXPECT_GT(report->journal_records_applied, 0u);

  TuningSession* restored = recovered.Find("t");
  ASSERT_NE(restored, nullptr);
  const json::Value snapshot = restored->Snapshot();
  EXPECT_EQ(snapshot.GetInt("jobs_run"), 2);
  EXPECT_EQ(snapshot.GetString("state"), "done");
  // Both the appended rows and the second job's acquisitions must be in the
  // replayed data; a third (appendless) run then estimates the same world.
  ST_CHECK_OK(recovered.Register(ColdJob("t")).status());
  ST_CHECK_OK(restored->RunJob());
  EXPECT_EQ(restored->phase(), SessionPhase::kDone);
}

// A session interrupted mid-flight (journaled as created, never finished)
// restores as cancelled and stays resumable.
TEST(StoreRecoveryTest, InterruptedSessionRestoresCancelledAndResumable) {
  const std::string dir = FreshDir("interrupted");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    // Registered (create journaled + synced) but the process "dies" before
    // the dispatcher ever runs the job.
    ST_CHECK_OK(manager.Register(ColdJob("i")).status());
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);

  TuningSession* restored = recovered.Find("i");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->phase(), SessionPhase::kCancelled);
  EXPECT_EQ(restored->last_status().code(), StatusCode::kCancelled);

  // The client's retry re-arms it like any cancelled session.
  MustRegisterAndRun(&recovered, ColdJob("i"));
  EXPECT_EQ(restored->phase(), SessionPhase::kDone);
}

// A shed submission that was dropped before admission must not resurrect.
TEST(StoreRecoveryTest, DroppedSessionIsNotRestored) {
  const std::string dir = FreshDir("dropped");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    const Result<TuningSession*> session = manager.Register(ColdJob("d"));
    ST_CHECK_OK(session.status());
    manager.Drop((*session)->id());
    EXPECT_EQ(manager.session_count(), 0u);
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 0u);
  EXPECT_EQ(report->sessions_dropped, 1u);
  EXPECT_EQ(recovered.Find("d"), nullptr);
}

// A name can be dropped and then legitimately reused: the retry after a
// shed submit recreates the session with a fresh id. Recovery must restore
// the new incarnation — the old incarnation's drop record (and its higher
// event sequence numbers) must not swallow it.
TEST(StoreRecoveryTest, DroppedThenRecreatedSessionRestores) {
  const std::string dir = FreshDir("drop_recreate");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    const Result<TuningSession*> shed = manager.Register(ColdJob("r"));
    ST_CHECK_OK(shed.status());
    manager.Drop((*shed)->id());  // admission rejected the first attempt
    MustRegisterAndRun(&manager, ColdJob("r"));  // the client's retry
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);
  TuningSession* restored = recovered.Find("r");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->phase(), SessionPhase::kDone);
  EXPECT_EQ(restored->Snapshot().GetInt("jobs_run"), 1);
}

// A shed submit and its retry can land while a checkpoint runs: between
// the checkpoint's seal and its fold, so the new snapshot covers the
// recreated name while the journal tail still holds both incarnations.
// Recovery must skip the older incarnation's records instead of starting
// the name over from the journal, and bring the session back warm.
TEST(StoreRecoveryTest, ShedAndRecreateDuringCheckpointRestoresWarm) {
  const std::string dir = FreshDir("stale_incarnation");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    const auto provider = [&manager] {
      const Result<TuningSession*> shed = manager.Register(ColdJob("x"));
      ST_CHECK_OK(shed.status());
      manager.Drop((*shed)->id());
      MustRegisterAndRun(&manager, ColdJob("x"));
      return manager.DurableSnapshot();
    };
    ST_CHECK_OK((*store)->CheckpointOnline(provider, 1).status());
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  ASSERT_FALSE((*reopened)->recovered().tail.empty());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);
  EXPECT_EQ(report->warm_slices, 4u);
  TuningSession* restored = recovered.Find("x");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->phase(), SessionPhase::kDone);
  EXPECT_EQ(restored->Snapshot().GetInt("jobs_run"), 1);
}

// Names with a surviving incarnation in a journal prefix: the last create
// per name, unless a drop of that same id follows it.
size_t LiveNamesIn(const std::vector<json::Value>& records, size_t count) {
  std::map<std::string, std::pair<long long, bool>> names;
  for (size_t i = 0; i < count; ++i) {
    const std::string event = records[i].GetString("event");
    const std::string name = records[i].GetString("session");
    if (event == "create") {
      names[name] = {records[i].GetInt("id"), true};
    } else if (event == "drop" &&
               names[name].first == records[i].GetInt("id")) {
      names[name].second = false;
    }
  }
  size_t live = 0;
  for (const auto& name : names) live += name.second.second ? 1 : 0;
  return live;
}

// Prefix property: seeded random histories of creates, cold jobs,
// append_rows resumes, cancel-before-start and drops. Every prefix of the
// journal folds and restores every surviving session; at every job
// boundary the restored sessions' durable state, rows and curve-engine
// cache equal the live ones, and the next append job gives bit-identical
// closing curves and training counts.
TEST(StoreRecoveryTest, EveryJournalPrefixRestoresTheLiveState) {
  const std::vector<std::string> names = {"p0", "p1", "p2"};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string dir = FreshDir("prefix_" + std::to_string(seed));
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager live;
    live.AttachStore(store->get());
    std::mt19937_64 rng(seed);
    size_t checked_prefix = 0;
    int appends_compared = 0;
    for (int step = 0; step < 10; ++step) {
      ST_CHECK_OK((*store)->Sync());
      const Result<store::RecoveredState> journal = store::ReadStateDir(dir);
      ST_CHECK_OK(journal.status());
      const std::vector<json::Value>& tail = journal->tail;
      // Every prefix since the last boundary folds and restores.
      for (size_t cut = checked_prefix; cut < tail.size(); ++cut) {
        store::RecoveredState prefix;
        prefix.tail.assign(tail.begin(), tail.begin() + cut);
        SessionManager restored;
        const Result<RestoreReport> report =
            restored.RestoreFromState(prefix, nullptr, false);
        ST_CHECK_OK(report.status());
        EXPECT_EQ(report->sessions_restored, LiveNamesIn(tail, cut))
            << "seed " << seed << " prefix " << cut;
      }
      checked_prefix = tail.size();

      // Job boundary: the whole journal restores to the live state.
      SessionManager restored;
      ST_CHECK_OK(restored.RestoreFromState(*journal, nullptr, false).status());
      for (const std::string& name : names) {
        TuningSession* want = live.Find(name);
        TuningSession* got = restored.Find(name);
        ASSERT_EQ(want == nullptr, got == nullptr) << name;
        if (want == nullptr) continue;
        EXPECT_EQ(got->DurableState().Dump(), want->DurableState().Dump())
            << "seed " << seed << " step " << step;
        EXPECT_EQ(got->RestingState().Dump(), want->RestingState().Dump())
            << "seed " << seed << " step " << step;
      }

      const std::string name = names[rng() % names.size()];
      TuningSession* session = live.Find(name);
      const int op = static_cast<int>(rng() % 4);
      if (session != nullptr && session->Snapshot().GetInt("jobs_run") > 0 &&
          op < 2) {
        // append_rows resume, run live and on the restored twin.
        TuningSession* twin = restored.Find(name);
        MustRegisterAndRun(&live, AppendJob(name));
        MustRegisterAndRun(&restored, AppendJob(name));
        EXPECT_EQ(twin->last_job_trainings(), session->last_job_trainings());
        EXPECT_EQ(CurvesDump(*twin), CurvesDump(*session));
        ++appends_compared;
      } else if (op == 2) {
        // Cancel before start (creates the name when it is new).
        const Result<TuningSession*> armed = live.Register(ColdJob(name));
        ST_CHECK_OK(armed.status());
        (*armed)->RequestCancel();
        EXPECT_EQ((*armed)->RunJob().code(), StatusCode::kCancelled);
      } else if (op == 3 && session == nullptr) {
        // Admission rejects a fresh name: the registration is dropped.
        const Result<TuningSession*> shed = live.Register(ColdJob(name));
        ST_CHECK_OK(shed.status());
        live.Drop((*shed)->id());
      } else {
        MustRegisterAndRun(&live, ColdJob(name));
      }
    }
    EXPECT_GT(appends_compared, 0) << "seed " << seed;
  }
}

// Torn journal tail at the serving level: garbage appended to the newest
// generation (a mid-write crash) must not block recovery of the sessions
// whose records preceded it.
TEST(StoreRecoveryTest, TornJournalTailStillRecoversSessions) {
  const std::string dir = FreshDir("torn_tail");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    MustRegisterAndRun(&manager, ColdJob("torn"));
  }
  // Simulate a crash mid-append: raw garbage lands after the last record of
  // the newest journal generation.
  const Result<std::vector<std::string>> files = ListDirFiles(dir);
  ST_CHECK_OK(files.status());
  std::string newest;
  for (const std::string& file : *files) {
    if (file.rfind("journal-", 0) == 0) newest = file;  // sorted ascending
  }
  ASSERT_FALSE(newest.empty());
  const Result<std::string> bytes = ReadFileToString(dir + "/" + newest);
  ST_CHECK_OK(bytes.status());
  ST_CHECK_OK(WriteStringToFile(dir + "/" + newest,
                                *bytes + "deadbeef {\"torn\":"));

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  EXPECT_TRUE((*reopened)->recovered().tail_truncated);
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_TRUE(report->tail_truncated);
  EXPECT_EQ(report->sessions_restored, 1u);
  TuningSession* restored = recovered.Find("torn");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->phase(), SessionPhase::kDone);
}

// The restore path must never clobber a live session: skip_existing is how
// the server's `restore` verb re-merges.
TEST(StoreRecoveryTest, SkipExistingLeavesLiveSessionsAlone) {
  const std::string dir = FreshDir("skip_existing");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    MustRegisterAndRun(&manager, ColdJob("live"));
    MustRegisterAndRun(&manager, ColdJob("gone"));
    Checkpoint(store->get(), manager);
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  // "live" already exists in this registry.
  TuningSession* live = MustRegisterAndRun(&recovered, ColdJob("live"));
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/true);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);
  EXPECT_EQ(report->sessions_skipped, 1u);
  EXPECT_EQ(recovered.Find("live"), live) << "live session untouched";
  EXPECT_NE(recovered.Find("gone"), nullptr);
}

// Store-aware admission (ISSUE 7): while RestoreFromState is rebuilding a
// session, a concurrent Register for the same name must shed with a
// retryable error instead of racing the rebuild or creating a duplicate
// the restore would then skip. Unrelated names stay admittable.
TEST(StoreRecoveryTest, RegisterShedsWhileNameIsMidRestore) {
  const std::string dir = FreshDir("midrestore");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    MustRegisterAndRun(&manager, ColdJob("m"));
    Checkpoint(store->get(), manager);
  }

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  // The hook holds the restore open between claiming "m" and rebuilding
  // it — the window a submit under load would race.
  std::promise<void> restore_entered;
  std::atomic<bool> release{false};
  recovered.SetRestoreHookForTesting([&restore_entered, &release] {
    restore_entered.set_value();
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  Result<RestoreReport> report = Status::Internal("restore never ran");
  std::thread restorer([&] {
    report = recovered.RestoreFromState((*reopened)->recovered(),
                                        reopened->get(),
                                        /*skip_existing=*/false);
  });
  restore_entered.get_future().wait();

  const Result<TuningSession*> shed = recovered.Register(ColdJob("m"));
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted)
      << shed.status();
  EXPECT_TRUE(recovered.Register(ColdJob("other")).ok())
      << "unclaimed names must admit normally mid-restore";

  release.store(true);
  restorer.join();
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);

  // Once the restore lands, the same submit resumes the restored session
  // (warm), instead of shedding or creating a duplicate.
  const Result<TuningSession*> resumed = recovered.Register(AppendJob("m"));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(recovered.stats().resumed, 1u);
  ST_CHECK_OK((*resumed)->RunJob());
  EXPECT_EQ((*resumed)->phase(), SessionPhase::kDone);
}

// Registers a fresh name and drops it, as the server does with a submit
// admission rejects.
void RegisterAndDrop(SessionManager* manager, const std::string& name) {
  const Result<TuningSession*> shed = manager->Register(ColdJob(name));
  ST_CHECK_OK(shed.status());
  manager->Drop((*shed)->id());
}

// `snapshot` (a DurableSnapshot document) with its session entries
// replaced by `sessions`.
json::Value WithSessions(const json::Value& snapshot,
                         std::vector<json::Value> sessions) {
  json::Value out = json::Value::Object();
  for (const auto& member : snapshot.members()) {
    out.Set(member.first, member.second);
  }
  json::Value items = json::Value::Array();
  for (json::Value& entry : sessions) items.Append(std::move(entry));
  out.Set("sessions", std::move(items));
  return out;
}

// Recovery rebuilds sessions in parallel but registers them in fold order.
// A population of snapshot entries, journal-tail-only sessions, drops, a
// drop-then-recreate and sessions the crash interrupted restores to the
// live registry byte for byte, order and id allocator included, and the
// next append job on a restored session matches its never-restarted twin.
TEST(StoreRecoveryTest, ManySessionRestoreMatchesLiveInFoldOrder) {
  const std::string dir = FreshDir("many_sessions");
  Result<std::unique_ptr<store::DurableStore>> store =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(store.status());
  SessionManager live;
  live.AttachStore(store->get());
  const auto job = [](int i) {
    JobSpec spec = ColdJob(StrFormat("m%02d", i));
    spec.seed = static_cast<uint64_t>(100 + i);
    return spec;
  };
  // Covered by the snapshot: 16 finished sessions and a dropped submit.
  for (int i = 0; i < 16; ++i) MustRegisterAndRun(&live, job(i));
  RegisterAndDrop(&live, "shed0");
  Checkpoint(store->get(), live);
  // Journal tail only: a dropped submit whose name is recreated after 16
  // more finished sessions, an append job on a snapshot-covered session, 4
  // submits the crash interrupts before they run, and a dropped submit
  // that takes the last id.
  RegisterAndDrop(&live, "again");
  for (int i = 16; i < 32; ++i) MustRegisterAndRun(&live, job(i));
  MustRegisterAndRun(&live, AppendJob("m03"));
  MustRegisterAndRun(&live, ColdJob("again"));
  for (int i = 32; i < 36; ++i) {
    ST_CHECK_OK(live.Register(job(i)).status());
  }
  RegisterAndDrop(&live, "shed1");
  ST_CHECK_OK((*store)->Sync());

  const Result<store::RecoveredState> recovered = store::ReadStateDir(dir);
  ST_CHECK_OK(recovered.status());
  ASSERT_TRUE(recovered->snapshot.is_object());
  ASSERT_FALSE(recovered->tail.empty());
  SessionManager restored;
  const Result<RestoreReport> report =
      restored.RestoreFromState(*recovered, nullptr, false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 37u);
  // The checkpoint retired shed0's records; the tail holds again's first
  // incarnation and shed1.
  EXPECT_EQ(report->sessions_dropped, 2u);
  EXPECT_EQ(report->sessions_failed, 0u);
  EXPECT_EQ(report->sessions_skipped, 0u);

  // The live registry as a restart brings it back: a session still queued
  // restores cancelled (InterruptedSessionRestoresCancelledAndResumable).
  // Rebuilding each entry alone gives the per-session warm slices.
  const json::Value live_snapshot = live.DurableSnapshot();
  std::vector<json::Value> expected;
  size_t warm_sum = 0;
  for (const json::Value& entry : live_snapshot.Find("sessions")->items()) {
    Result<SessionState> state = SessionState::FromJson(entry);
    ST_CHECK_OK(state.status());
    size_t warm = 0;
    Result<std::unique_ptr<TuningSession>> alone =
        TuningSession::Restore(std::move(*state), nullptr, &warm);
    ST_CHECK_OK(alone.status());
    warm_sum += warm;
    expected.push_back((*alone)->DurableState());
  }
  ASSERT_EQ(expected.size(), 37u);
  EXPECT_EQ(expected[36].GetString("name"), "m35");
  EXPECT_EQ(expected[36].GetString("phase"), "cancelled");
  EXPECT_EQ(restored.DurableSnapshot().Dump(),
            WithSessions(live_snapshot, std::move(expected)).Dump());
  EXPECT_EQ(report->warm_slices, warm_sum);
  EXPECT_GT(report->warm_slices, 0u);

  // One append job per restored session kind (snapshot entry plus tail,
  // tail only, recreated) matches the never-restarted twin.
  for (const char* name : {"m03", "m20", "again"}) {
    TuningSession* want = live.Find(name);
    TuningSession* got = restored.Find(name);
    ASSERT_NE(got, nullptr) << name;
    MustRegisterAndRun(&live, AppendJob(name));
    MustRegisterAndRun(&restored, AppendJob(name));
    EXPECT_EQ(got->last_job_trainings(), want->last_job_trainings()) << name;
    EXPECT_EQ(CurvesDump(*got), CurvesDump(*want)) << name;
    EXPECT_EQ(DataHash(*got), DataHash(*want)) << name;
  }
}

// Per-session error isolation: one undecodable snapshot entry among many
// fails alone. Every other session restores, in fold order; the report
// counts the failure; and the bad name's claim is released, so a submit
// creates it afresh.
TEST(StoreRecoveryTest, OneUndecodableSessionDoesNotBlockTheRest) {
  const std::string dir = FreshDir("one_undecodable");
  SessionManager live;
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    live.AttachStore(store->get());
    for (int i = 0; i < 12; ++i) {
      MustRegisterAndRun(&live, ColdJob(StrFormat("u%02d", i)));
    }
    Checkpoint(store->get(), live);
    live.AttachStore(nullptr);
  }
  Result<store::RecoveredState> recovered = store::ReadStateDir(dir);
  ST_CHECK_OK(recovered.status());
  ASSERT_TRUE(recovered->tail.empty());

  // Corrupt u05: its acquire log names a slice the session does not have.
  const std::string bad = "u05";
  json::Value acquire = json::Value::Array();
  acquire.Append(0);
  acquire.Append(99);
  acquire.Append(5);
  json::Value acquires = json::Value::Array();
  acquires.Append(std::move(acquire));
  std::vector<json::Value> entries;
  std::vector<std::string> want_order;
  const json::Value* sessions = recovered->snapshot.Find("sessions");
  for (const json::Value& entry : sessions->items()) {
    entries.push_back(entry);
    if (entry.GetString("name") == bad) {
      entries.back().Set("acquires", acquires);
    } else {
      want_order.push_back(entry.GetString("name"));
    }
  }
  recovered->snapshot = WithSessions(recovered->snapshot, std::move(entries));

  SessionManager restored;
  const Result<RestoreReport> report =
      restored.RestoreFromState(*recovered, nullptr, false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 11u);
  EXPECT_EQ(report->sessions_failed, 1u);
  EXPECT_EQ(report->ToJson().GetInt("sessions_failed"), 1);
  EXPECT_GT(report->warm_slices, 0u);

  const json::Value snapshot = restored.DurableSnapshot();
  std::vector<std::string> got_order;
  for (const json::Value& entry : snapshot.Find("sessions")->items()) {
    got_order.push_back(entry.GetString("name"));
    EXPECT_EQ(entry.Dump(),
              live.Find(got_order.back())->DurableState().Dump());
  }
  EXPECT_EQ(got_order, want_order);

  // The failed name is not registered, and its claim is released: a submit
  // creates it fresh instead of shedding.
  EXPECT_EQ(restored.Find(bad), nullptr);
  bool created = false;
  const Result<TuningSession*> fresh =
      restored.Register(ColdJob(bad), &created);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_TRUE(created);
  ST_CHECK_OK((*fresh)->RunJob());
  EXPECT_EQ(CurvesDump(**fresh), CurvesDump(*live.Find(bad)));
}

}  // namespace
}  // namespace serve
}  // namespace slicetuner
