// Autonomous store maintenance under fault injection (docs/STATE.md,
// "Maintenance lifecycle"). The headline suite iterates every registered
// crash point on the online-checkpoint path, captures a bit-exact crash
// image of the state directory at that instant (FaultInjector hook), fails
// the checkpoint there, and asserts that (a) the live store keeps serving
// and a retry succeeds, and (b) recovery from the crash image is
// bit-identical to a never-restarted control — data hashes, counters, and
// the closing curves of the next job. The satellites cover injected
// EIO/ENOSPC/short-write degradation (previous snapshot + journal chain
// stay intact, serving unaffected, failure counted, later retry succeeds),
// the journal-tail warning footgun, cadence triggers, checkpoint-bounded
// replay windows, and the maintenance thread running against live jobs
// (the TSan CI lane's store concurrency coverage).

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fs_util.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "serve/session_manager.h"
#include "store/fault_injector.h"
#include "store/maintenance.h"
#include "store/store.h"

namespace slicetuner {
namespace serve {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/store_maint_" + name;
  const Result<std::vector<std::string>> files = ListDirFiles(dir);
  if (files.ok()) {
    for (const std::string& file : *files) {
      (void)RemoveFile(dir + "/" + file);
    }
  }
  ST_CHECK_OK(MkDirRecursive(dir));
  return dir;
}

// Bit-exact copy of a state directory — the "crash image" an ArmHook
// captures at a named maintenance transition.
Status CopyDir(const std::string& src, const std::string& dst) {
  ST_RETURN_NOT_OK(MkDirRecursive(dst));
  ST_ASSIGN_OR_RETURN(const std::vector<std::string> files,
                      ListDirFiles(src));
  for (const std::string& file : files) {
    ST_ASSIGN_OR_RETURN(const std::string bytes,
                        ReadFileToString(src + "/" + file));
    ST_RETURN_NOT_OK(WriteStringToFile(dst + "/" + file, bytes));
  }
  return Status::OK();
}

// The injector is process-global; every test starts and ends disarmed.
struct InjectorReset {
  InjectorReset() { store::FaultInjector::Global().Reset(); }
  ~InjectorReset() { store::FaultInjector::Global().Reset(); }
};

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

// Content hash of the session's resting training data.
std::string DataHash(const TuningSession& session) {
  return session.RestingState().GetString("data_hash");
}

json::Value RawRecord(int i) {
  json::Value record = json::Value::Object();
  record.Set("i", i);
  record.Set("pad", std::string(64, 'x'));
  return record;
}

size_t CountFilesWithPrefix(const std::string& dir,
                            const std::string& prefix) {
  const Result<std::vector<std::string>> files = ListDirFiles(dir);
  if (!files.ok()) return 0;
  size_t count = 0;
  for (const std::string& file : *files) {
    if (file.rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// The crash-point recovery suite (the tentpole's acceptance check).
// ---------------------------------------------------------------------------

// For every registered maintenance crash point, in checkpoint order: build
// sessions, take one clean online checkpoint, add journal-only work, then
// fail a second checkpoint exactly at the point under test while capturing
// a crash image of the directory. Recovery from that image must equal an
// uninterrupted control bit for bit, and the live (not crashed) store must
// keep serving with a successful retry. An armed point that is never
// reached fails the suite, so the registry cannot rot.
TEST(StoreMaintenanceCrashTest, EveryCrashPointRecoversBitIdentical) {
  InjectorReset guard;

  // --- control: the same workload, never restarted, no store ---
  SessionManager control;
  TuningSession* control_a = MustRegisterAndRun(&control, ColdJob("a"));
  TuningSession* control_b = MustRegisterAndRun(&control, ColdJob("b"));
  MustRegisterAndRun(&control, AppendJob("a"));
  const std::string control_hash_a = DataHash(*control_a);
  const std::string control_hash_b = DataHash(*control_b);
  ASSERT_FALSE(control_hash_a.empty());
  // The control also runs b's append job: the recovered store replays it
  // live below, and warm equivalence must hold there too.
  MustRegisterAndRun(&control, AppendJob("b"));
  const long long control_b_warm = control_b->last_job_trainings();
  const std::string control_curves_b = CurvesDump(*control_b);
  const std::string control_hash_b_final = DataHash(*control_b);
  ASSERT_FALSE(control_curves_b.empty());

  for (const std::string& point : store::MaintenanceCrashPoints()) {
    SCOPED_TRACE("crash point: " + point);
    store::FaultInjector::Global().Reset();
    std::string tag = point;
    for (char& c : tag) {
      if (c == '.') c = '_';
    }
    const std::string dir = FreshDir("crash_" + tag);
    const std::string image = FreshDir("image_" + tag);

    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    const auto provider = [&manager] { return manager.DurableSnapshot(); };

    MustRegisterAndRun(&manager, ColdJob("a"));
    MustRegisterAndRun(&manager, ColdJob("b"));
    // Clean checkpoint #1: gives checkpoint #2 a snapshot to preserve (and
    // so a retained artifact to retire), making every phase reachable.
    ST_CHECK_OK((*store)->CheckpointOnline(provider, /*retain=*/2).status());
    // Journal-only work after the checkpoint: the crash image's journal
    // tail matters for the early crash points.
    MustRegisterAndRun(&manager, AppendJob("a"));
    ST_CHECK_OK((*store)->Sync());

    bool image_taken = false;
    store::FaultInjector::Global().ArmHook(point, [&] {
      const Status copied = CopyDir(dir, image);
      if (!copied.ok()) return copied;
      image_taken = true;
      return Status::Internal("injected crash at " + point);
    });
    // retain=0 so checkpoint #2 reaches the snapshot-retirement phase.
    const Result<store::CheckpointReport> crashed =
        (*store)->CheckpointOnline(provider, /*retain=*/0);
    EXPECT_FALSE(crashed.ok()) << "checkpoint must fail at " << point;
    ASSERT_GE(store::FaultInjector::Global().HitCount(point), 1u)
        << "armed crash point was never reached — stale registry?";
    ASSERT_TRUE(image_taken);
    store::FaultInjector::Global().Reset();

    // The live store is unaffected: the next tick's retry succeeds.
    ST_CHECK_OK((*store)->CheckpointOnline(provider, /*retain=*/0).status());

    // --- recover the crash image ---
    Result<std::unique_ptr<store::DurableStore>> reopened =
        store::DurableStore::Open(image);
    ST_CHECK_OK(reopened.status());
    // Everything acknowledged was synced before the crash: nothing torn.
    EXPECT_FALSE((*reopened)->recovered().tail_truncated);
    SessionManager recovered;
    const Result<RestoreReport> report = recovered.RestoreFromState(
        (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
    ST_CHECK_OK(report.status());
    EXPECT_EQ(report->sessions_restored, 2u);

    TuningSession* a = recovered.Find("a");
    TuningSession* b = recovered.Find("b");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->phase(), SessionPhase::kDone);
    EXPECT_EQ(b->phase(), SessionPhase::kDone);
    EXPECT_EQ(a->Snapshot().GetInt("jobs_run"), 2);
    EXPECT_EQ(b->Snapshot().GetInt("jobs_run"), 1);
    // Bit-identical data state, whichever side of the crash the snapshot
    // publish landed on.
    EXPECT_EQ(DataHash(*a), control_hash_a);
    EXPECT_EQ(DataHash(*b), control_hash_b);

    // Serving continues on the recovered state: b's append job matches the
    // never-restarted control exactly — trainings, closing curves, data.
    MustRegisterAndRun(&recovered, AppendJob("b"));
    EXPECT_EQ(b->last_job_trainings(), control_b_warm);
    EXPECT_EQ(CurvesDump(*b), control_curves_b);
    EXPECT_EQ(DataHash(*b), control_hash_b_final);
  }
}

// A crash in the middle of journal retirement (after the first delete, not
// the first visit) leaves a contiguous chain suffix that recovers like any
// other tail. Several sealed generations are built up by aborting earlier
// checkpoints after their rotate phase.
TEST(StoreMaintenanceCrashTest, MidRetirementCrashLeavesContiguousSuffix) {
  InjectorReset guard;

  SessionManager control;
  TuningSession* control_a = MustRegisterAndRun(&control, ColdJob("a"));
  TuningSession* control_b = MustRegisterAndRun(&control, ColdJob("b"));
  MustRegisterAndRun(&control, AppendJob("a"));
  const std::string control_hash_a = DataHash(*control_a);
  const std::string control_hash_b = DataHash(*control_b);

  const std::string dir = FreshDir("midretire");
  const std::string image = FreshDir("midretire_image");
  Result<std::unique_ptr<store::DurableStore>> store =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(store.status());
  SessionManager manager;
  manager.AttachStore(store->get());
  const auto provider = [&manager] { return manager.DurableSnapshot(); };

  // Three sealed generations: two checkpoints abort right after rotating
  // (fold fails), each stranding one more generation in the tail.
  MustRegisterAndRun(&manager, ColdJob("a"));
  ST_CHECK_OK((*store)->Sync());
  store::FaultInjector::Global().ArmFailure(
      store::fault::kMaintFold, Status::Internal("injected"), 0, 1);
  EXPECT_FALSE((*store)->CheckpointOnline(provider, 2).ok());
  MustRegisterAndRun(&manager, ColdJob("b"));
  ST_CHECK_OK((*store)->Sync());
  store::FaultInjector::Global().ArmFailure(
      store::fault::kMaintFold, Status::Internal("injected"), 0, 1);
  EXPECT_FALSE((*store)->CheckpointOnline(provider, 2).ok());
  MustRegisterAndRun(&manager, AppendJob("a"));
  ST_CHECK_OK((*store)->Sync());
  ASSERT_GE(CountFilesWithPrefix(dir, "journal-"), 3u);

  // Crash on the SECOND journal retirement: the oldest generation is
  // already gone from the image, the rest of the chain survives.
  store::FaultInjector::Global().Reset();
  store::FaultInjector::Global().ArmHook(
      store::fault::kMaintRetireJournal,
      [&] {
        ST_RETURN_NOT_OK(CopyDir(dir, image));
        return Status::Internal("injected crash mid-retirement");
      },
      /*skip=*/1);
  EXPECT_FALSE((*store)->CheckpointOnline(provider, 2).ok());
  EXPECT_GE(store::FaultInjector::Global().HitCount(
                store::fault::kMaintRetireJournal),
            2u);
  store::FaultInjector::Global().Reset();

  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(image);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 2u);
  TuningSession* a = recovered.Find("a");
  TuningSession* b = recovered.Find("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(DataHash(*a), control_hash_a);
  EXPECT_EQ(DataHash(*b), control_hash_b);
  EXPECT_EQ(a->Snapshot().GetInt("jobs_run"), 2);
}

// ---------------------------------------------------------------------------
// The deferred startup checkpoint: a restarted daemon restores, attaches
// the store and starts serving; the maintenance thread runs the owed
// checkpoint concurrently with new appends.
// ---------------------------------------------------------------------------

// The pre-restart directory: a snapshot (so the owed checkpoint has one to
// preserve and retire) plus a journal tail holding a's append job.
std::string PreRestartDir() {
  const std::string dir = FreshDir("deferred_base");
  Result<std::unique_ptr<store::DurableStore>> store =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(store.status());
  {
    SessionManager manager;
    manager.AttachStore(store->get());
    MustRegisterAndRun(&manager, ColdJob("a"));
    MustRegisterAndRun(&manager, ColdJob("b"));
    ST_CHECK_OK((*store)
                    ->CheckpointOnline(
                        [&manager] { return manager.DurableSnapshot(); }, 2)
                    .status());
    MustRegisterAndRun(&manager, AppendJob("a"));
    ST_CHECK_OK((*store)->Sync());
  }
  return dir;
}

// A restarted daemon's state: the store reopened, every session restored,
// the store attached for journaling.
struct Restarted {
  std::unique_ptr<store::DurableStore> store;
  SessionManager manager;

  explicit Restarted(const std::string& dir) {
    Result<std::unique_ptr<store::DurableStore>> opened =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(opened.status());
    store = std::move(*opened);
    const Result<RestoreReport> report = manager.RestoreFromState(
        store->recovered(), store.get(), /*skip_existing=*/false);
    ST_CHECK_OK(report.status());
    manager.AttachStore(store.get());
  }
};

// Runs jobs on session c until stopped (at least one, at most
// `max_jobs`): the appends in flight while the owed checkpoint runs.
class Appender {
 public:
  Appender(SessionManager* manager, int max_jobs)
      : thread_([this, manager, max_jobs] {
          for (int i = 0; i < max_jobs && (i == 0 || !stop_.load()); ++i) {
            MustRegisterAndRun(manager, i == 0 ? ColdJob("c") : AppendJob("c"));
            jobs_.fetch_add(1);
          }
        }) {}
  ~Appender() { Stop(); }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  int jobs() const { return jobs_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> jobs_{0};
  std::thread thread_;
};

// Waits (bounded) until the maintenance manager has settled the owed
// checkpoint.
void AwaitCheckpoint(const store::MaintenanceManager& maintenance) {
  for (int i = 0; i < 20000 && maintenance.stats().checkpoints == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(maintenance.stats().checkpoints, 1u);
}

TEST(StoreMaintenanceCrashTest, DeferredStartupCheckpointRecoversBitIdentical) {
  InjectorReset guard;
  constexpr int kMaxAppendJobs = 8;

  // --- control: the same history, never restarted, no store ---
  SessionManager control;
  TuningSession* control_a = MustRegisterAndRun(&control, ColdJob("a"));
  TuningSession* control_b = MustRegisterAndRun(&control, ColdJob("b"));
  MustRegisterAndRun(&control, AppendJob("a"));
  const std::string control_hash_a = DataHash(*control_a);
  const std::string control_hash_b = DataHash(*control_b);
  // c's data after each of its jobs, indexed by jobs_run.
  std::vector<std::string> control_hash_c(1);
  for (int i = 0; i < kMaxAppendJobs; ++i) {
    TuningSession* c =
        MustRegisterAndRun(&control, i == 0 ? ColdJob("c") : AppendJob("c"));
    control_hash_c.push_back(DataHash(*c));
  }
  MustRegisterAndRun(&control, AppendJob("b"));
  const long long control_b_warm = control_b->last_job_trainings();
  const std::string control_curves_b = CurvesDump(*control_b);
  const std::string control_hash_b_final = DataHash(*control_b);

  const std::string base = PreRestartDir();
  for (const std::string& point : store::MaintenanceCrashPoints()) {
    SCOPED_TRACE("crash point: " + point);
    store::FaultInjector::Global().Reset();
    std::string tag = point;
    for (char& ch : tag) {
      if (ch == '.') ch = '_';
    }
    const std::string dir = FreshDir("deferred_" + tag);
    const std::string image = FreshDir("deferred_image_" + tag);
    ST_CHECK_OK(CopyDir(base, dir));

    {
      Restarted live(dir);
      store::MaintenancePolicy policy;  // no trigger: only the owed checkpoint
      policy.interval_ms = 5;
      policy.retain_snapshots = 0;  // reach the snapshot-retirement phase
      store::MaintenanceManager maintenance(
          live.store.get(), policy,
          [&live] { return live.manager.DurableSnapshot(); });
      bool image_taken = false;
      store::FaultInjector::Global().ArmHook(point, [&] {
        const Status copied = CopyDir(dir, image);
        if (!copied.ok()) return copied;
        image_taken = true;
        return Status::Internal("injected crash at " + point);
      });
      Appender appender(&live.manager, kMaxAppendJobs);
      maintenance.Start();
      // The owed checkpoint dies at the point, counts the failure, and its
      // retry one interval later succeeds while appends keep flowing.
      AwaitCheckpoint(maintenance);
      appender.Stop();
      maintenance.Stop();
      EXPECT_EQ(maintenance.stats().failures, 1u);
      EXPECT_EQ(maintenance.stats().checkpoints, 1u);
      ASSERT_GE(store::FaultInjector::Global().HitCount(point), 1u)
          << "armed crash point was never reached — stale registry?";
      ASSERT_TRUE(image_taken);
      store::FaultInjector::Global().Reset();
      TuningSession* c = live.manager.Find("c");
      ASSERT_NE(c, nullptr);
      EXPECT_EQ(DataHash(*c), control_hash_c[static_cast<size_t>(
                                  appender.jobs())]);
    }

    // --- recover the crash image ---
    Restarted recovered(image);
    TuningSession* a = recovered.manager.Find("a");
    TuningSession* b = recovered.manager.Find("b");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->phase(), SessionPhase::kDone);
    EXPECT_EQ(b->phase(), SessionPhase::kDone);
    EXPECT_EQ(a->Snapshot().GetInt("jobs_run"), 2);
    EXPECT_EQ(b->Snapshot().GetInt("jobs_run"), 1);
    EXPECT_EQ(DataHash(*a), control_hash_a);
    EXPECT_EQ(DataHash(*b), control_hash_b);
    // c was mid-history at the crash: whatever finished job it recovers at
    // matches the control after the same number of jobs.
    TuningSession* c = recovered.manager.Find("c");
    if (c != nullptr && c->phase() == SessionPhase::kDone) {
      const long long jobs_run = c->Snapshot().GetInt("jobs_run");
      ASSERT_GE(jobs_run, 1);
      ASSERT_LE(jobs_run, kMaxAppendJobs);
      EXPECT_EQ(DataHash(*c), control_hash_c[static_cast<size_t>(jobs_run)]);
    }

    // Serving continues on the recovered state exactly as in the control.
    MustRegisterAndRun(&recovered.manager, AppendJob("b"));
    EXPECT_EQ(b->last_job_trainings(), control_b_warm);
    EXPECT_EQ(CurvesDump(*b), control_curves_b);
    EXPECT_EQ(DataHash(*b), control_hash_b_final);

    // The live directory, whose retry succeeded, recovers every session.
    Restarted reopened(dir);
    ASSERT_NE(reopened.manager.Find("a"), nullptr);
    EXPECT_EQ(DataHash(*reopened.manager.Find("a")), control_hash_a);
    EXPECT_EQ(DataHash(*reopened.manager.Find("b")), control_hash_b);
  }
}

TEST(StoreMaintenanceTest, DeferredStartupCheckpointEioIsCountedAndRetried) {
  InjectorReset guard;
  obs::Counter* failures = obs::MetricsRegistry::Global().counter(
      "store_maintenance_failures_total");
  const double failures_before = failures->Value();
  const std::string dir = FreshDir("deferred_eio");
  ST_CHECK_OK(CopyDir(PreRestartDir(), dir));
  const Result<store::RecoveredState> before = store::ReadStateDir(dir);
  ST_CHECK_OK(before.status());
  ASSERT_GT(before->tail.size(), 0u);

  Restarted live(dir);
  store::MaintenancePolicy policy;  // no trigger: only the owed checkpoint
  policy.interval_ms = 5;
  EXPECT_FALSE(policy.Enabled());
  store::MaintenanceManager maintenance(
      live.store.get(), policy,
      [&live] { return live.manager.DurableSnapshot(); });
  EXPECT_FALSE(maintenance.CheckpointDue()) << "owed is not a trigger";
  store::FaultInjector::Global().ArmFailure(
      store::fault::kSnapshotWriteTmp, Status::Internal("injected EIO"), 0,
      1);
  maintenance.Start();
  // Serving continues while the owed checkpoint fails and retries.
  MustRegisterAndRun(&live.manager, ColdJob("c"));
  AwaitCheckpoint(maintenance);
  EXPECT_EQ(maintenance.stats().failures, 1u);
  EXPECT_EQ(failures->Value(), failures_before + 1.0);
  // The recovered chain is retired: only the generation opened by the
  // checkpoint's rotate is left.
  EXPECT_EQ(CountFilesWithPrefix(dir, "journal-"), 1u);
  // The owed checkpoint freed the recovered tree; stats still report it.
  EXPECT_TRUE(live.store->recovered().snapshot.is_null());
  EXPECT_TRUE(live.store->recovered().tail.empty());
  const json::Value store_stats = live.store->StatsJson();
  EXPECT_TRUE(store_stats.GetBool("recovered_snapshot"));
  EXPECT_EQ(store_stats.GetInt("recovered_records"),
            static_cast<long long>(before->tail.size()));

  // With no trigger, later jobs start no further checkpoint.
  for (int i = 0; i < 3; ++i) {
    MustRegisterAndRun(&live.manager, AppendJob("c"));
    maintenance.NotifyJobFinished();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  maintenance.Stop();
  EXPECT_EQ(maintenance.stats().checkpoints, 1u);
  EXPECT_EQ(maintenance.stats().jobs_since_checkpoint, 3u);

  live.store.reset();
  Restarted reopened(dir);
  ASSERT_NE(reopened.manager.Find("a"), nullptr);
  ASSERT_NE(reopened.manager.Find("b"), nullptr);
  TuningSession* c = reopened.manager.Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->Snapshot().GetInt("jobs_run"), 4);
}

// ---------------------------------------------------------------------------
// Injected-failure degradation: disk full / EIO during maintenance must
// leave the previous snapshot + journal chain intact and serving untouched.
// ---------------------------------------------------------------------------

TEST(StoreMaintenanceTest, CheckpointDiskFailureLeavesServingUnaffected) {
  InjectorReset guard;
  obs::Counter* failures = obs::MetricsRegistry::Global().counter(
      "store_maintenance_failures_total");
  const double failures_before = failures->Value();

  const std::string dir = FreshDir("eio");
  Result<std::unique_ptr<store::DurableStore>> store =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(store.status());
  SessionManager manager;
  manager.AttachStore(store->get());
  store::MaintenancePolicy policy;
  policy.snapshot_every_jobs = 1;
  store::MaintenanceManager maintenance(
      store->get(), policy, [&manager] { return manager.DurableSnapshot(); });

  MustRegisterAndRun(&manager, ColdJob("s"));
  maintenance.NotifyJobFinished();
  EXPECT_TRUE(maintenance.CheckpointDue());
  ST_CHECK_OK(maintenance.RunOnce());
  EXPECT_FALSE(maintenance.CheckpointDue());

  // Checkpoint #2 dies writing the snapshot tmp (ENOSPC). The previous
  // snapshot and the journal chain must be exactly as before.
  MustRegisterAndRun(&manager, AppendJob("s"));
  maintenance.NotifyJobFinished();
  store::FaultInjector::Global().ArmFailure(
      store::fault::kSnapshotWriteTmp,
      Status::Internal("injected ENOSPC"), 0, 1);
  const Status failed = maintenance.RunOnce();
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(maintenance.stats().failures, 1u);
  EXPECT_EQ(failures->Value(), failures_before + 1.0);

  // The previous checkpoint still parses and the chain still covers the
  // append job — a restart right now loses nothing.
  const Result<store::RecoveredState> peeked = store::ReadStateDir(dir);
  ST_CHECK_OK(peeked.status());
  EXPECT_FALSE(peeked->snapshot.is_null());
  EXPECT_GT(peeked->tail.size(), 0u);

  // Serving is unaffected: jobs keep running, and the next tick's retry
  // succeeds.
  MustRegisterAndRun(&manager, AppendJob("s"));
  maintenance.NotifyJobFinished();
  ST_CHECK_OK(maintenance.RunOnce());
  EXPECT_EQ(maintenance.stats().checkpoints, 2u);
  EXPECT_EQ(maintenance.stats().failures, 1u);

  store->reset();  // close the writer before reopening the directory
  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 1u);
  TuningSession* s = recovered.Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->Snapshot().GetInt("jobs_run"), 3);
}

TEST(StoreMaintenanceTest, PreRenameFailureKeepsPreviousSnapshot) {
  InjectorReset guard;
  const std::string dir = FreshDir("prerename");
  Result<std::unique_ptr<store::DurableStore>> store =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(store.status());
  const auto provider = [] {
    json::Value doc = json::Value::Object();
    doc.Set("sessions", json::Value::Array());
    return doc;
  };
  ST_CHECK_OK((*store)->Append(RawRecord(1)));
  ST_CHECK_OK((*store)->Sync());
  ST_CHECK_OK((*store)->CheckpointOnline(provider, 2).status());
  const Result<std::string> before =
      ReadFileToString(dir + "/snapshot.st");
  ST_CHECK_OK(before.status());

  // The replace dies between writing the tmp and the rename: snapshot.st
  // must still be byte-for-byte the previous checkpoint.
  ST_CHECK_OK((*store)->Append(RawRecord(2)));
  ST_CHECK_OK((*store)->Sync());
  store::FaultInjector::Global().ArmFailure(
      store::fault::kSnapshotPreRename, Status::Internal("injected EIO"), 0,
      1);
  EXPECT_FALSE((*store)->CheckpointOnline(provider, 2).ok());
  const Result<std::string> after = ReadFileToString(dir + "/snapshot.st");
  ST_CHECK_OK(after.status());
  EXPECT_EQ(*before, *after);

  store::FaultInjector::Global().Reset();
  ST_CHECK_OK((*store)->CheckpointOnline(provider, 2).status());
}

TEST(StoreFaultTest, InjectedAppendFailureHealsTheJournal) {
  InjectorReset guard;
  const std::string dir = FreshDir("append_eio");
  Result<std::unique_ptr<store::DurableStore>> store =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(store.status());
  ST_CHECK_OK((*store)->Append(RawRecord(1)));
  store::FaultInjector::Global().ArmFailure(
      store::fault::kJournalAppend, Status::Internal("injected EIO"), 0, 1);
  EXPECT_FALSE((*store)->Append(RawRecord(2)).ok());
  ST_CHECK_OK((*store)->Append(RawRecord(3)));
  ST_CHECK_OK((*store)->Sync());
  store->reset();

  const Result<store::RecoveredState> recovered = store::ReadStateDir(dir);
  ST_CHECK_OK(recovered.status());
  EXPECT_FALSE(recovered->tail_truncated) << "heal must leave a clean file";
  ASSERT_EQ(recovered->tail.size(), 2u);
  EXPECT_EQ(recovered->tail[0].GetInt("i"), 1);
  EXPECT_EQ(recovered->tail[1].GetInt("i"), 3);
}

TEST(StoreFaultTest, ShortWriteIsTruncatedAwayNotLeftMidFile) {
  InjectorReset guard;
  const std::string dir = FreshDir("short_write");
  Result<std::unique_ptr<store::DurableStore>> store =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(store.status());
  ST_CHECK_OK((*store)->Append(RawRecord(1)));
  // Half a frame reaches the file, then the writer must truncate it back:
  // a later successful append after un-healed damage would be the
  // mid-file-corruption shape recovery refuses.
  store::FaultInjector::Global().ArmFailure(
      store::fault::kJournalAppendShortWrite,
      Status::Internal("injected short write"), 0, 1);
  EXPECT_FALSE((*store)->Append(RawRecord(2)).ok());
  ST_CHECK_OK((*store)->Append(RawRecord(3)));
  ST_CHECK_OK((*store)->Sync());
  store->reset();

  const Result<store::RecoveredState> recovered = store::ReadStateDir(dir);
  ST_CHECK_OK(recovered.status());
  EXPECT_FALSE(recovered->tail_truncated);
  ASSERT_EQ(recovered->tail.size(), 2u);
  EXPECT_EQ(recovered->tail[1].GetInt("i"), 3);
}

TEST(StoreFaultTest, SyncFailureIsRetriable) {
  InjectorReset guard;
  const std::string dir = FreshDir("sync_eio");
  Result<std::unique_ptr<store::DurableStore>> store =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(store.status());
  ST_CHECK_OK((*store)->Append(RawRecord(1)));
  store::FaultInjector::Global().ArmFailure(
      store::fault::kJournalSync, Status::Internal("injected fsync EIO"), 0,
      1);
  EXPECT_FALSE((*store)->Sync().ok());
  ST_CHECK_OK((*store)->Sync());  // the retry commits the same batch
  store->reset();
  const Result<store::RecoveredState> recovered = store::ReadStateDir(dir);
  ST_CHECK_OK(recovered.status());
  ASSERT_EQ(recovered->tail.size(), 1u);
}

// ---------------------------------------------------------------------------
// Tail accounting, cadence triggers, retention, and the background thread.
// ---------------------------------------------------------------------------

TEST(StoreMaintenanceTest, JournalTailWarningFiresOnceWithHysteresis) {
  InjectorReset guard;
  const std::string dir = FreshDir("tail_warn");
  Result<std::unique_ptr<store::DurableStore>> store =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(store.status());
  (*store)->SetTailWarnBytes(512);
  for (int i = 0; i < 20; ++i) {
    ST_CHECK_OK((*store)->Append(RawRecord(i)));
  }
  EXPECT_GE((*store)->JournalTailBytes(), 512u);
  EXPECT_EQ((*store)->stats().tail_warnings, 1u)
      << "a tail hovering over the threshold must warn once, not per append";

  // A checkpoint collapses the tail below half the threshold, re-arming
  // the warning; growing past it again warns a second time.
  const auto provider = [] { return json::Value::Object(); };
  ST_CHECK_OK((*store)->CheckpointOnline(provider, 0).status());
  EXPECT_LT((*store)->JournalTailBytes(), 256u);
  for (int i = 0; i < 20; ++i) {
    ST_CHECK_OK((*store)->Append(RawRecord(i)));
  }
  EXPECT_EQ((*store)->stats().tail_warnings, 2u);
}

TEST(StoreMaintenanceTest, CadenceTriggersOnJobsAndBytes) {
  InjectorReset guard;
  const std::string dir = FreshDir("cadence");
  Result<std::unique_ptr<store::DurableStore>> store =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(store.status());
  const auto provider = [] { return json::Value::Object(); };

  store::MaintenancePolicy jobs_policy;
  jobs_policy.snapshot_every_jobs = 2;
  EXPECT_TRUE(jobs_policy.Enabled());
  store::MaintenanceManager by_jobs(store->get(), jobs_policy, provider);
  EXPECT_FALSE(by_jobs.CheckpointDue());
  by_jobs.NotifyJobFinished();
  EXPECT_FALSE(by_jobs.CheckpointDue());
  by_jobs.NotifyJobFinished();
  EXPECT_TRUE(by_jobs.CheckpointDue());
  ST_CHECK_OK(by_jobs.RunOnce());
  EXPECT_FALSE(by_jobs.CheckpointDue()) << "a checkpoint resets the trigger";
  EXPECT_EQ(by_jobs.stats().checkpoints, 1u);
  EXPECT_GT(by_jobs.stats().last_checkpoint_ms, 0.0);

  store::MaintenancePolicy bytes_policy;
  bytes_policy.snapshot_every_bytes = 128;
  store::MaintenanceManager by_bytes(store->get(), bytes_policy, provider);
  EXPECT_FALSE(by_bytes.CheckpointDue());
  for (int i = 0; i < 4; ++i) {
    ST_CHECK_OK((*store)->Append(RawRecord(i)));
  }
  EXPECT_TRUE(by_bytes.CheckpointDue());
  ST_CHECK_OK(by_bytes.RunOnce());
  EXPECT_FALSE(by_bytes.CheckpointDue());

  store::MaintenancePolicy disabled;
  EXPECT_FALSE(disabled.Enabled());
}

// Per-checkpoint cadence keeps the replay window at zero once the last job
// is covered, and snapshot retention trims the rollback artifacts.
TEST(StoreMaintenanceTest, CheckpointCadenceBoundsReplayAndTrimsSnapshots) {
  InjectorReset guard;
  const std::string dir = FreshDir("bounded");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    store::MaintenancePolicy policy;
    policy.snapshot_every_jobs = 1;
    policy.retain_snapshots = 2;
    store::MaintenanceManager maintenance(
        store->get(), policy,
        [&manager] { return manager.DurableSnapshot(); });
    for (int i = 0; i < 5; ++i) {
      MustRegisterAndRun(&manager, ColdJob("s" + std::to_string(i)));
      maintenance.NotifyJobFinished();
      ST_CHECK_OK(maintenance.RunOnce());
    }
    EXPECT_EQ(maintenance.stats().checkpoints, 5u);
    EXPECT_GE(maintenance.stats().journals_retired, 5u);
    EXPECT_GE(maintenance.stats().snapshots_retired, 1u);
    const json::Value stats_json = maintenance.StatsJson();
    EXPECT_TRUE(stats_json.GetBool("enabled"));
    EXPECT_EQ(stats_json.GetInt("checkpoints"), 5);
  }
  // Retention: at most retain_snapshots rollback artifacts on disk.
  EXPECT_LE(CountFilesWithPrefix(dir, "snapshot-"), 2u);

  // The replay window is empty: every record is snapshot-covered, so a
  // restart applies nothing from the journal.
  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  EXPECT_EQ((*reopened)->recovered().journal_bytes, 0u);
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 5u);
  EXPECT_EQ(report->journal_records_applied, 0u);
}

// The maintenance thread against live serving-side jobs: this is the
// concurrency pairing the TSan CI lane checks (maintenance thread folding
// + retiring while the serving thread appends and syncs).
TEST(StoreMaintenanceTest, BackgroundThreadCheckpointsUnderLiveJobs) {
  InjectorReset guard;
  const std::string dir = FreshDir("thread");
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(dir);
    ST_CHECK_OK(store.status());
    SessionManager manager;
    manager.AttachStore(store->get());
    store::MaintenancePolicy policy;
    policy.snapshot_every_jobs = 1;
    policy.interval_ms = 5;
    store::MaintenanceManager maintenance(
        store->get(), policy,
        [&manager] { return manager.DurableSnapshot(); });
    maintenance.Start();
    maintenance.Start();  // idempotent
    for (int i = 0; i < 6; ++i) {
      MustRegisterAndRun(&manager, ColdJob("t" + std::to_string(i % 3)));
      maintenance.NotifyJobFinished();
    }
    for (int i = 0; i < 2000 && maintenance.stats().checkpoints == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    maintenance.Stop();
    maintenance.Stop();  // idempotent
    EXPECT_GE(maintenance.stats().checkpoints, 1u);
  }
  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  SessionManager recovered;
  const Result<RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  EXPECT_EQ(report->sessions_restored, 3u);
}

TEST(FaultInjectorTest, SkipCountHitsAndResetSemantics) {
  InjectorReset guard;
  store::FaultInjector& injector = store::FaultInjector::Global();
  // Inactive: free pass, and visits are not even counted.
  ST_CHECK_OK(injector.Reached("x.point"));
  EXPECT_EQ(injector.HitCount("x.point"), 0u);

  injector.ArmFailure("x.point", Status::Internal("boom"), /*skip=*/1,
                      /*count=*/2);
  ST_CHECK_OK(injector.Reached("x.point"));          // skipped
  EXPECT_FALSE(injector.Reached("x.point").ok());    // failure 1
  EXPECT_FALSE(injector.Reached("x.point").ok());    // failure 2
  ST_CHECK_OK(injector.Reached("x.point"));          // budget exhausted
  EXPECT_EQ(injector.HitCount("x.point"), 4u);

  bool hook_ran = false;
  injector.ArmHook("y.point", [&hook_ran] {
    hook_ran = true;
    return Status::Internal("hooked");
  });
  EXPECT_FALSE(injector.Reached("y.point").ok());
  EXPECT_TRUE(hook_ran);
  ST_CHECK_OK(injector.Reached("y.point"));  // one-shot: disarmed

  injector.Reset();
  EXPECT_EQ(injector.HitCount("x.point"), 0u);
  ST_CHECK_OK(injector.Reached("x.point"));
}

}  // namespace
}  // namespace serve
}  // namespace slicetuner
