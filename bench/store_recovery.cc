// Store recovery benchmark: what a warm restart buys. One durable session
// runs a cold tuning job and checkpoints; the bench then measures
//
//   cold_refit_seconds    rebuilding the session state by re-running the
//                         job from scratch (what a stateless daemon pays
//                         after every restart: full model re-training), vs
//   warm_replay_seconds   store recovery (snapshot + journal replay: data
//                         re-derived, curve cache installed, zero model
//                         trainings).
//
// A second section measures what background maintenance (docs/STATE.md
// "Maintenance lifecycle") buys: a multi-hundred-job stream runs twice,
// once with no checkpoints (the journal grows for the whole run) and once
// with the snapshot-every-N-jobs cadence driving a live
// store::MaintenanceManager. It reports per-job submit->done p99 for both
// modes and the journal replay window a restart would pay after each, and
// gates
//
//   replay_window_bounded   the cadence run's replay window stayed a small
//                           fraction of the unmaintained run's (the whole
//                           point of online checkpoints), and
//   maint_overhead_bounded  background checkpoints did not stall serving
//                           (generous p99 bound — maintenance phases never
//                           stop the world).
//
// Writes BENCH_store.json (gated against bench/baselines/ by
// scripts/check_bench.py: the warm_vs_cold_replay_speedup ratio and the
// correctness booleans).
//
// Usage: bench_store_recovery [--rows=240] [--repeats=3]
//                             [--maint-jobs=240] [--maint-cadence=20]

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "serve/session_manager.h"
#include "store/maintenance.h"
#include "store/store.h"

namespace slicetuner {
namespace {

serve::JobSpec ColdJob(long long rows) {
  serve::JobSpec job;
  job.session = "bench";
  job.num_slices = 4;
  job.rows_per_slice = rows;
  job.budget = 40.0;
  job.rounds = 1;
  job.method = "moderate";
  job.seed = 7;
  return job;
}

// One small job of the maintenance stream: distinct session per job, so a
// 240-job run journals (and later replays) 240 sessions' worth of records.
serve::JobSpec StreamJob(int index) {
  serve::JobSpec job;
  job.session = "job-" + std::to_string(index);
  job.num_slices = 2;
  job.rows_per_slice = 48;
  job.budget = 20.0;
  job.rounds = 1;
  job.method = "moderate";
  job.seed = 11 + index;
  return job;
}

serve::TuningSession* MustRun(serve::SessionManager* manager,
                              const serve::JobSpec& job) {
  Result<serve::TuningSession*> session = manager->Register(job);
  ST_CHECK_OK(session.status());
  ST_CHECK_OK((*session)->RunJob());
  return *session;
}

// Fresh state dir: leftover generations from an earlier run would skew
// the replay measurement.
void ClearStateDir(const std::string& dir) {
  if (const Result<std::vector<std::string>> leftovers = ListDirFiles(dir);
      leftovers.ok()) {
    for (const std::string& file : *leftovers) {
      ST_CHECK_OK(RemoveFile(dir + "/" + file));
    }
  }
}

double PercentileMs(std::vector<double> samples_ms, double quantile) {
  if (samples_ms.empty()) return 0.0;
  std::sort(samples_ms.begin(), samples_ms.end());
  const size_t index =
      static_cast<size_t>(quantile * static_cast<double>(samples_ms.size() - 1));
  return samples_ms[index];
}

struct StreamResult {
  std::vector<double> per_job_ms;
  size_t checkpoints = 0;
  size_t journals_retired = 0;
  /// What a restart after the stream pays: journal records / bytes replayed.
  size_t replay_records = 0;
  size_t replay_bytes = 0;
  size_t sessions_restored = 0;
};

// Runs `jobs` small tuning jobs against a fresh durable state dir — with a
// live MaintenanceManager checkpointing every `cadence` jobs, or with no
// maintenance at all — then reopens the dir and measures the replay window
// a restart would pay.
StreamResult RunJobStream(const std::string& state_dir, int jobs, int cadence,
                          bool with_maintenance) {
  ClearStateDir(state_dir);
  StreamResult out;
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(state_dir);
    ST_CHECK_OK(store.status());
    serve::SessionManager manager;
    manager.AttachStore(store->get());
    std::unique_ptr<store::MaintenanceManager> maintenance;
    if (with_maintenance) {
      store::MaintenancePolicy policy;
      policy.snapshot_every_jobs = cadence;
      policy.interval_ms = 5;
      policy.retain_snapshots = 2;
      maintenance = std::make_unique<store::MaintenanceManager>(
          store->get(), policy,
          [&manager] { return manager.DurableSnapshot(); });
      maintenance->Start();
    }
    out.per_job_ms.reserve(static_cast<size_t>(jobs));
    for (int j = 0; j < jobs; ++j) {
      Stopwatch timer;
      MustRun(&manager, StreamJob(j));
      out.per_job_ms.push_back(timer.ElapsedSeconds() * 1e3);
      if (maintenance != nullptr) maintenance->NotifyJobFinished();
    }
    if (maintenance != nullptr) {
      maintenance->Stop();
      out.checkpoints = maintenance->stats().checkpoints;
      out.journals_retired = maintenance->stats().journals_retired;
    }
  }
  Result<std::unique_ptr<store::DurableStore>> reopened =
      store::DurableStore::Open(state_dir);
  ST_CHECK_OK(reopened.status());
  out.replay_records = (*reopened)->recovered().tail.size();
  out.replay_bytes = (*reopened)->recovered().journal_bytes;
  serve::SessionManager recovered;
  Result<serve::RestoreReport> report = recovered.RestoreFromState(
      (*reopened)->recovered(), reopened->get(), /*skip_existing=*/false);
  ST_CHECK_OK(report.status());
  out.sessions_restored = report->sessions_restored;
  return out;
}

}  // namespace
}  // namespace slicetuner

int main(int argc, char** argv) {
  using namespace slicetuner;

  const long long rows = bench::ParseIntFlag(argc, argv, "--rows=", 240);
  const int repeats =
      std::max(1, bench::ParseIntFlag(argc, argv, "--repeats=", 3));
  const int maint_jobs =
      std::max(1, bench::ParseIntFlag(argc, argv, "--maint-jobs=", 240));
  const int maint_cadence =
      std::max(1, bench::ParseIntFlag(argc, argv, "--maint-cadence=", 20));
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const std::string state_dir = ResultsDir() + "/store_recovery_state";
  ClearStateDir(state_dir);

  // Seed the durable state: one cold job, checkpointed.
  long long cold_trainings = 0;
  {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(state_dir);
    ST_CHECK_OK(store.status());
    serve::SessionManager manager;
    manager.AttachStore(store->get());
    serve::TuningSession* session =
        MustRun(&manager, ColdJob(rows));
    cold_trainings = session->last_job_trainings();
    ST_CHECK_OK((*store)
                    ->CheckpointOnline(
                        [&manager] { return manager.DurableSnapshot(); },
                        /*retain_snapshots=*/0)
                    .status());
  }

  // Cold refit: a stateless daemon re-runs the job from scratch on every
  // restart (model trainings included). Best of N.
  double cold_seconds = 0.0;
  for (int r = 0; r < repeats; ++r) {
    serve::SessionManager fresh;
    Stopwatch timer;
    MustRun(&fresh, ColdJob(rows));
    const double wall = timer.ElapsedSeconds();
    cold_seconds = r == 0 ? wall : std::min(cold_seconds, wall);
  }

  // Warm replay: recover the same resting state from the store — data
  // re-derived deterministically, curve cache installed hash-validated,
  // zero model trainings. Best of N.
  double warm_seconds = 0.0;
  size_t warm_slices = 0;
  bool replay_matches = true;
  for (int r = 0; r < repeats; ++r) {
    Result<std::unique_ptr<store::DurableStore>> store =
        store::DurableStore::Open(state_dir);
    ST_CHECK_OK(store.status());
    serve::SessionManager recovered;
    Stopwatch timer;
    Result<serve::RestoreReport> report = recovered.RestoreFromState(
        (*store)->recovered(), store->get(), /*skip_existing=*/false);
    const double wall = timer.ElapsedSeconds();
    ST_CHECK_OK(report.status());
    warm_seconds = r == 0 ? wall : std::min(warm_seconds, wall);
    warm_slices = report->warm_slices;
    serve::TuningSession* restored = recovered.Find("bench");
    replay_matches =
        replay_matches && restored != nullptr &&
        restored->phase() == serve::SessionPhase::kDone &&
        restored->last_job_trainings() == cold_trainings;
  }

  const double speedup = warm_seconds > 0.0 ? cold_seconds / warm_seconds
                                            : 0.0;
  std::printf("store recovery (rows_per_slice=%lld, best of %d):\n", rows,
              repeats);
  std::printf("  cold refit   %.4f s  (%lld model trainings)\n",
              cold_seconds, cold_trainings);
  std::printf("  warm replay  %.4f s  (0 model trainings, %zu warm slices)\n",
              warm_seconds, warm_slices);
  std::printf("  speedup      %.1fx\n", speedup);

  // Maintenance cadence: the same multi-hundred-job stream with and
  // without a background MaintenanceManager checkpointing every
  // `maint_cadence` finished jobs.
  const StreamResult off = RunJobStream(
      ResultsDir() + "/store_recovery_maint_off", maint_jobs, maint_cadence,
      /*with_maintenance=*/false);
  const StreamResult on = RunJobStream(
      ResultsDir() + "/store_recovery_maint_on", maint_jobs, maint_cadence,
      /*with_maintenance=*/true);
  const double off_p99_ms = PercentileMs(off.per_job_ms, 0.99);
  const double on_p99_ms = PercentileMs(on.per_job_ms, 0.99);
  // The cadence run must have actually checkpointed, restored every
  // session, and left a replay window that is a small fraction of the
  // unmaintained run's full-history replay. The 4x margin absorbs the
  // in-flight window (jobs finished while the last checkpoint folded).
  const bool replay_window_bounded =
      on.checkpoints >= 2 &&
      on.sessions_restored == static_cast<size_t>(maint_jobs) &&
      off.sessions_restored == static_cast<size_t>(maint_jobs) &&
      on.replay_records * 4 <= off.replay_records;
  // Background checkpoints must not stall the serve path. The bound is
  // deliberately generous (p99 is noisy on loaded 1-core CI runners); the
  // claim it gates is "no stop-the-world stall", not "free".
  const bool maint_overhead_bounded =
      on_p99_ms <= off_p99_ms * 20.0 + 20.0;
  std::printf("maintenance stream (%d jobs, snapshot every %d jobs):\n",
              maint_jobs, maint_cadence);
  std::printf("  maintenance off  p99 %.3f ms/job, restart replays %zu "
              "records (%zu bytes)\n",
              off_p99_ms, off.replay_records, off.replay_bytes);
  std::printf("  maintenance on   p99 %.3f ms/job, restart replays %zu "
              "records (%zu bytes), %zu checkpoints, %zu journals retired\n",
              on_p99_ms, on.replay_records, on.replay_bytes, on.checkpoints,
              on.journals_retired);

  json::Value summary = json::Value::Object();
  summary.Set("bench", "store_recovery");
  summary.Set("rows_per_slice", rows);
  summary.Set("repeats", repeats);
  summary.Set("hardware_cores", static_cast<long long>(cores));
  summary.Set("cold_refit_seconds", cold_seconds);
  summary.Set("warm_replay_seconds", warm_seconds);
  summary.Set("warm_vs_cold_replay_speedup", speedup);
  summary.Set("warm_slices", warm_slices);
  summary.Set("replay_state_matches", replay_matches);
  summary.Set("warm_replay_beats_cold_refit", warm_seconds < cold_seconds);
  summary.Set("maint_jobs", static_cast<long long>(maint_jobs));
  summary.Set("maint_cadence_jobs", static_cast<long long>(maint_cadence));
  summary.Set("maint_checkpoints", static_cast<long long>(on.checkpoints));
  summary.Set("maint_off_p99_ms", off_p99_ms);
  summary.Set("maint_on_p99_ms", on_p99_ms);
  summary.Set("maint_off_replay_records",
              static_cast<long long>(off.replay_records));
  summary.Set("maint_on_replay_records",
              static_cast<long long>(on.replay_records));
  summary.Set("maint_off_replay_bytes",
              static_cast<long long>(off.replay_bytes));
  summary.Set("maint_on_replay_bytes",
              static_cast<long long>(on.replay_bytes));
  summary.Set("replay_window_bounded", replay_window_bounded);
  summary.Set("maint_overhead_bounded", maint_overhead_bounded);
  const std::string path = ResultsDir() + "/BENCH_store.json";
  ST_CHECK_OK(bench::WriteBenchJson(path, summary));
  std::printf("wrote %s\n", path.c_str());

  // A recovery that fails to reproduce the resting state, or that is not
  // actually cheaper than re-running the job, is a broken store: fail the
  // bench (and with it, CI) loudly.
  if (!replay_matches || !(warm_seconds < cold_seconds)) {
    std::fprintf(stderr,
                 "FAIL: warm replay must reproduce the session state and "
                 "beat the cold refit\n");
    return 1;
  }
  if (!replay_window_bounded || !maint_overhead_bounded) {
    std::fprintf(stderr,
                 "FAIL: cadence checkpoints must bound the restart replay "
                 "window without stalling the serve path\n");
    return 1;
  }
  return 0;
}
