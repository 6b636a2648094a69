// slicetuner_serve: the tuning service daemon. Binds 127.0.0.1:<port>,
// serves the line-delimited JSON protocol (src/serve/protocol.h), and on
// graceful shutdown writes a serve_stats.json summary into the results
// directory (SLICETUNER_RESULTS_DIR honored, like every bench).
//
// Usage (--threads caps the sessions in flight per dispatch shard; 0 = one
// per pool worker):
//   slicetuner_serve [--port=0] [--threads=N] [--max-queue=16]
//                    [--retry-after-ms=50] [--max-backlog=0] [--workers=0]
//                    [--max-connections=64] [--state-dir=DIR]
//                    [--metrics-dump=PATH]
//                    [--snapshot-every-jobs=0] [--snapshot-every-bytes=0]
//                    [--maintenance-interval-ms=250] [--retain-snapshots=2]
//                    [--journal-warn-bytes=67108864]
//
// --state-dir makes sessions durable (src/store/, docs/STATE.md): startup
// replays the directory's snapshot + journal tail so sessions resume warm,
// then listens while a maintenance thread writes the startup checkpoint;
// the `snapshot`/`restore` admin verbs work, and a final checkpoint is
// written on graceful shutdown.
//
// --snapshot-every-jobs / --snapshot-every-bytes enable background store
// maintenance (docs/STATE.md "Maintenance lifecycle"): a maintenance
// thread checkpoints the store online after N finished jobs and/or once
// the un-snapshotted journal tail exceeds M bytes, collapsing sealed
// journal generations into a fresh snapshot and retiring them while the
// daemon keeps serving. --retain-snapshots bounds the superseded
// snapshot-NNNNNN.st rollback artifacts kept on disk;
// --maintenance-interval-ms is the thread's wake cadence (triggers are
// also checked eagerly on every finished job). --journal-warn-bytes logs a
// warning once the un-snapshotted tail exceeds the threshold even with
// maintenance disabled (0 silences it).
//
// --metrics-dump writes the metrics registry's Prometheus-style text
// exposition (docs/OBSERVABILITY.md) to PATH on graceful shutdown; "-"
// dumps to stdout. Live values are available any time via the `metrics`
// protocol verb.
//
// With --state-dir, a crash handler is installed for SIGSEGV / SIGBUS /
// SIGABRT that writes the flight recorder's last events to
// <state-dir>/crash/recorder.txt (async-signal-safe: write(2) only) and a
// best-effort metrics exposition to <state-dir>/crash/metrics.txt, then
// re-raises the signal so the exit status still reports the crash.
// --crash-test=abort is the hidden hook the smoke test uses to exercise
// that path deliberately.
//
// Honors SLICETUNER_LOG_LEVEL (debug|info|warning|error|none) and
// SLICETUNER_LOG_JSON=1 for structured logs (src/common/logging.h).
//
// Prints "slicetuner_serve listening on 127.0.0.1:<port>" once ready (the
// smoke test and scripts read the ephemeral port off this line).

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "common/fs_util.h"
#include "common/logging.h"
#include "common/trace_context.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "serve/server.h"

namespace {

// Fixed buffers the crash handler may touch: a signal handler must not
// allocate, so the full dump paths are rendered at install time.
char g_crash_recorder_path[512] = {0};
char g_crash_metrics_path[512] = {0};

void CrashHandler(int signo) {
  // Restore the default disposition first: a second fault inside the
  // handler (or the re-raise below) must terminate, not recurse.
  signal(signo, SIG_DFL);
  if (g_crash_recorder_path[0] != '\0') {
    const int fd = open(g_crash_recorder_path,
                        O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      // Strictly async-signal-safe: stack buffers + write(2) only.
      slicetuner::obs::Recorder::Global().DumpTo(fd);
      close(fd);
    }
  }
  if (g_crash_metrics_path[0] != '\0') {
    // TextExposition allocates and takes the registry mutex — not
    // signal-safe, so this is best effort and runs last: if it hangs or
    // faults, the recorder dump above is already on disk.
    const int fd = open(g_crash_metrics_path,
                        O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      const std::string text =
          slicetuner::obs::MetricsRegistry::Global().TextExposition();
      const ssize_t ignored = write(fd, text.data(), text.size());
      (void)ignored;
      close(fd);
    }
  }
  raise(signo);
}

void InstallCrashHandler(const std::string& crash_dir) {
  std::snprintf(g_crash_recorder_path, sizeof(g_crash_recorder_path),
                "%s/recorder.txt", crash_dir.c_str());
  std::snprintf(g_crash_metrics_path, sizeof(g_crash_metrics_path),
                "%s/metrics.txt", crash_dir.c_str());
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = CrashHandler;
  sigemptyset(&action.sa_mask);
  sigaction(SIGSEGV, &action, nullptr);
  sigaction(SIGBUS, &action, nullptr);
  sigaction(SIGABRT, &action, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slicetuner;

  InitLoggingFromEnv();

  serve::ServerOptions options;
  options.port = bench::ParseIntFlag(argc, argv, "--port=", 0);
  options.max_concurrent_sessions =
      bench::ParseThreadsFlag(argc, argv, /*default=*/0);
  options.admission.max_queue_depth = static_cast<size_t>(
      bench::ParseIntFlag(argc, argv, "--max-queue=", 16));
  options.admission.retry_after_ms =
      bench::ParseIntFlag(argc, argv, "--retry-after-ms=", 50);
  options.admission.max_executor_backlog = static_cast<size_t>(
      bench::ParseIntFlag(argc, argv, "--max-backlog=", 0));
  options.num_workers = bench::ParseIntFlag(argc, argv, "--workers=", 0);
  options.max_connections =
      bench::ParseIntFlag(argc, argv, "--max-connections=", 64);
  options.state_dir = bench::ParseStringFlag(argc, argv, "--state-dir=", "");
  options.maintenance.snapshot_every_jobs =
      bench::ParseIntFlag(argc, argv, "--snapshot-every-jobs=", 0);
  options.maintenance.snapshot_every_bytes =
      bench::ParseIntFlag(argc, argv, "--snapshot-every-bytes=", 0);
  options.maintenance.interval_ms =
      bench::ParseIntFlag(argc, argv, "--maintenance-interval-ms=", 250);
  options.maintenance.retain_snapshots =
      bench::ParseIntFlag(argc, argv, "--retain-snapshots=", 2);
  options.journal_tail_warn_bytes =
      bench::ParseIntFlag(argc, argv, "--journal-warn-bytes=", 64 * 1024 * 1024);
  const std::string metrics_dump =
      bench::ParseStringFlag(argc, argv, "--metrics-dump=", "");
  const std::string crash_test =
      bench::ParseStringFlag(argc, argv, "--crash-test=", "");

  if (!options.state_dir.empty()) {
    // Pre-create the crash directory now: the handler itself may only
    // open(2) a path that already resolves.
    const std::string crash_dir = options.state_dir + "/crash";
    ST_CHECK_OK(MkDirRecursive(crash_dir));
    InstallCrashHandler(crash_dir);
  }

  if (crash_test == "abort") {
    // Deliberate crash for the smoke test: drop a recognizable event into
    // the flight recorder under a fresh trace id, then abort through the
    // handler so the dump demonstrably round-trips.
    trace::TraceScope scope(trace::MintTraceId(), "crash-test");
    obs::Recorder::Global().RecordHere(obs::EventKind::kRequestRecv, 0);
    obs::Recorder::Global().RecordHere(obs::EventKind::kRequestDone, 0);
    std::printf("crash-test: raising SIGABRT\n");
    std::fflush(stdout);
    std::abort();
  }

  serve::TuningServer server(options);
  ST_CHECK_OK(server.Start());
  std::printf("slicetuner_serve listening on 127.0.0.1:%d\n", server.port());
  std::printf("queue depth %zu, retry-after %d ms\n",
              options.admission.max_queue_depth,
              options.admission.retry_after_ms);
  if (!options.state_dir.empty()) {
    const serve::RestoreReport& report = server.restore_report();
    std::printf("state dir %s: restored %zu session(s), %zu warm slice(s), "
                "%zu journal record(s) replayed%s\n",
                options.state_dir.c_str(), report.sessions_restored,
                report.warm_slices, report.journal_records_applied,
                report.tail_truncated ? " (torn journal tail truncated)"
                                      : "");
    if (options.maintenance.Enabled()) {
      std::printf("maintenance: snapshot every %d job(s) / %lld byte(s), "
                  "interval %d ms, retain %d snapshot(s)\n",
                  options.maintenance.snapshot_every_jobs,
                  options.maintenance.snapshot_every_bytes,
                  options.maintenance.interval_ms,
                  options.maintenance.retain_snapshots);
    }
  }
  std::fflush(stdout);

  server.Wait();

  if (!metrics_dump.empty()) {
    const std::string exposition =
        obs::MetricsRegistry::Global().TextExposition();
    if (metrics_dump == "-") {
      std::fputs(exposition.c_str(), stdout);
      std::fflush(stdout);
    } else {
      ST_CHECK_OK(WriteStringToFile(metrics_dump, exposition));
      std::printf("metrics written to %s\n", metrics_dump.c_str());
    }
  }

  const std::string stats_path = ResultsDir() + "/serve_stats.json";
  ST_CHECK_OK(
      WriteStringToFile(stats_path, server.StatsJson().Dump(2) + "\n"));
  std::printf("shut down cleanly; stats written to %s\n", stats_path.c_str());
  return 0;
}
