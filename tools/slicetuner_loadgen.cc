// slicetuner_loadgen: trace-driven load harness. Compiles a scenario grid
// into a thousands-of-sessions workload (src/load/workload.h), replays it
// against a live slicetuner_serve daemon (src/load/driver.h) — optionally
// spawning the daemon itself and SIGKILL+restarting it mid-run against the
// same --state-dir — then verifies every clean surviving session's closing
// estimates bit-identically against a single-process oracle replay
// (src/load/oracle.h) and checks client-measured SLOs. Writes
// BENCH_load.json (gated by scripts/check_bench.py); exit status 0 iff
// every correctness and SLO bool passed. docs/LOAD.md is the full manual.
//
// Spawn mode (kill-and-restart capable):
//   slicetuner_loadgen --serve-bin=./slicetuner_serve --sessions=1000
//       --kills=2 [--state-dir=DIR] [--server-args forwarded below]
// External mode (daemon already running; no chaos):
//   slicetuner_loadgen --port=7070 --sessions=200
//
// Workload:  --sessions=64 --arrival=poisson|bursty --rate=200
//            --burst-size=32 --burst-every-ms=250 --scenarios=a,b (empty =
//            full canonical library) --budget-cap=48 --max-rounds=2
//            --append-fraction=0.25 --max-appends=2 --cancel-fraction=0.05
//            --moderate-fraction=0.1 --stalled-readers=2 --seed=1
// Driver:    --driver-threads=4 --poll-interval-ms=15 --io-timeout-ms=10000
//            --deadline-ms=900000
// Daemon:    --workers=0 --max-connections=256 --max-queue=64
//            --server-threads=0 --retry-after-ms=25
// Chaos:     --kills=0 (SIGKILL + restart, spaced across the arrival span)
// SLOs:      --slo-shed-rate=0.9 --slo-poll-p99-ms=500
//            --slo-submit-p99-ms=120000
// Output:    --out=<results>/BENCH_load.json

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/fs_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "load/daemon.h"
#include "load/driver.h"
#include "load/oracle.h"
#include "load/workload.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace {

using namespace slicetuner;

double ParseDoubleFlag(int argc, char** argv, const char* prefix,
                       double default_value) {
  const std::string text =
      bench::ParseStringFlag(argc, argv, prefix, "");
  if (text.empty()) return default_value;
  return std::atof(text.c_str());
}

// Best-effort fresh state dir: the store's files live flat in the dir.
void ClearStateDir(const std::string& dir) {
  Result<std::vector<std::string>> files = ListDirFiles(dir);
  if (!files.ok()) return;
  for (const auto& name : *files) (void)RemoveFile(dir + "/" + name);
}

}  // namespace

int main(int argc, char** argv) {
  InitLoggingFromEnv();

  load::WorkloadSpec spec;
  spec.sessions = bench::ParseIntFlag(argc, argv, "--sessions=", 64);
  const std::string arrival =
      bench::ParseStringFlag(argc, argv, "--arrival=", "poisson");
  Result<load::ArrivalProcess> process =
      load::ArrivalProcessFromName(arrival);
  if (!process.ok()) {
    std::fprintf(stderr, "%s\n", process.status().ToString().c_str());
    return 2;
  }
  spec.arrival = *process;
  spec.arrival_rate_per_sec =
      ParseDoubleFlag(argc, argv, "--rate=", 200.0);
  spec.burst_size = bench::ParseIntFlag(argc, argv, "--burst-size=", 32);
  spec.burst_every_ms =
      bench::ParseIntFlag(argc, argv, "--burst-every-ms=", 250);
  const std::string scenarios =
      bench::ParseStringFlag(argc, argv, "--scenarios=", "");
  if (!scenarios.empty()) spec.scenarios = Split(scenarios, ',');
  spec.budget_cap = ParseDoubleFlag(argc, argv, "--budget-cap=", 48.0);
  spec.max_rounds = bench::ParseIntFlag(argc, argv, "--max-rounds=", 2);
  spec.append_fraction =
      ParseDoubleFlag(argc, argv, "--append-fraction=", 0.25);
  spec.max_appends = bench::ParseIntFlag(argc, argv, "--max-appends=", 2);
  spec.cancel_fraction =
      ParseDoubleFlag(argc, argv, "--cancel-fraction=", 0.05);
  spec.moderate_fraction =
      ParseDoubleFlag(argc, argv, "--moderate-fraction=", 0.1);
  spec.stalled_readers =
      bench::ParseIntFlag(argc, argv, "--stalled-readers=", 2);
  spec.seed = static_cast<uint64_t>(
      bench::ParseIntFlag(argc, argv, "--seed=", 1));

  Result<load::Workload> compiled = load::CompileWorkload(spec);
  if (!compiled.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 compiled.status().ToString().c_str());
    return 2;
  }
  const load::Workload& workload = *compiled;

  const std::string serve_bin =
      bench::ParseStringFlag(argc, argv, "--serve-bin=", "");
  const int fixed_port = bench::ParseIntFlag(argc, argv, "--port=", 0);
  const int kills = bench::ParseIntFlag(argc, argv, "--kills=", 0);
  if (serve_bin.empty() && fixed_port <= 0) {
    std::fprintf(stderr,
                 "need --serve-bin=PATH (spawn mode) or --port=N "
                 "(external daemon)\n");
    return 2;
  }
  if (serve_bin.empty() && kills > 0) {
    std::fprintf(stderr, "--kills requires spawn mode (--serve-bin)\n");
    return 2;
  }

  // Spawned daemon: fresh state dir, generous connection budget (driver
  // threads + stalled readers), fast retry hints so shed-and-retry churns.
  std::unique_ptr<load::DaemonProcess> daemon_owner;
  load::DaemonProcess* daemon = nullptr;
  load::DaemonOptions daemon_options;
  std::string state_dir;
  if (!serve_bin.empty()) {
    state_dir = bench::ParseStringFlag(argc, argv, "--state-dir=",
                                       ResultsDir() + "/load_state");
    ST_CHECK_OK(MkDirRecursive(state_dir));
    ClearStateDir(state_dir);
    daemon_options.serve_bin = serve_bin;
    daemon_options.log_path = ResultsDir() + "/load_daemon.log";
    // Fresh log per run: this run's banner count is an assertable record of
    // daemon generations (the e2e test counts them).
    (void)RemoveFile(daemon_options.log_path);
    daemon_options.args = {
        "--port=0",
        "--state-dir=" + state_dir,
        "--workers=" +
            std::to_string(bench::ParseIntFlag(argc, argv, "--workers=", 0)),
        "--max-connections=" +
            std::to_string(
                bench::ParseIntFlag(argc, argv, "--max-connections=", 256)),
        "--max-queue=" +
            std::to_string(bench::ParseIntFlag(argc, argv, "--max-queue=", 64)),
        "--threads=" +
            std::to_string(
                bench::ParseIntFlag(argc, argv, "--server-threads=", 0)),
        "--retry-after-ms=" +
            std::to_string(
                bench::ParseIntFlag(argc, argv, "--retry-after-ms=", 25)),
    };
    daemon_owner = std::make_unique<load::DaemonProcess>(daemon_options);
    daemon = daemon_owner.get();
    ST_CHECK_OK(daemon->Start());
    std::printf("daemon up: pid %d, port %d, state dir %s\n",
                static_cast<int>(daemon->pid()), daemon->port(),
                state_dir.c_str());
  }

  load::DriverOptions driver_options;
  driver_options.threads =
      bench::ParseIntFlag(argc, argv, "--driver-threads=", 4);
  driver_options.poll_interval_ms =
      bench::ParseIntFlag(argc, argv, "--poll-interval-ms=", 15);
  driver_options.io_timeout_ms =
      bench::ParseIntFlag(argc, argv, "--io-timeout-ms=", 10000);
  driver_options.run_deadline_ms =
      bench::ParseIntFlag(argc, argv, "--deadline-ms=", 900000);
  if (daemon != nullptr) {
    driver_options.port = [daemon] { return daemon->port(); };
  } else {
    driver_options.port = [fixed_port] { return fixed_port; };
  }

  // Chaos thread: SIGKILL + restart, spaced across the arrival span so
  // kills land while traffic is live.
  std::thread chaos;
  std::atomic<bool> chaos_stop{false};
  int restarts_done = 0;
  if (kills > 0 && daemon != nullptr) {
    // Kills are spaced strictly inside the arrival span: the driver cannot
    // drain before the last session's arrival offset, so these always land
    // while traffic is live. If the replay still finishes first (tiny
    // span), the remaining kills fire immediately — a kill+restart on a
    // quiescent daemon still exercises restore, and restarts_done always
    // reaches the requested count on a healthy run.
    int span_ms = 0;
    for (const auto& s : workload.sessions)
      span_ms = std::max(span_ms, s.arrival_ms);
    span_ms = std::max(span_ms, 100);
    chaos = std::thread([&, span_ms] {
      int elapsed_ms = 0;
      for (int k = 0; k < kills; ++k) {
        const int at_ms = span_ms * (k + 1) / (kills + 1);
        const int slice_ms = 20;
        while (elapsed_ms < at_ms && !chaos_stop.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(slice_ms));
          elapsed_ms += slice_ms;
        }
        std::printf("chaos: SIGKILL daemon (kill %d/%d)\n", k + 1, kills);
        std::fflush(stdout);
        daemon->Kill();
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        elapsed_ms += 200;
        Status restarted = daemon->Start();
        if (!restarted.ok()) {
          std::fprintf(stderr, "chaos: restart failed: %s\n",
                       restarted.ToString().c_str());
          return;
        }
        std::printf("chaos: daemon back on port %d\n", daemon->port());
        std::fflush(stdout);
        ++restarts_done;
      }
    });
  }

  std::printf("replaying %zu sessions / %zu ops (%s arrivals)...\n",
              workload.sessions.size(), workload.TotalOps(),
              load::ArrivalProcessName(spec.arrival));
  std::fflush(stdout);
  load::LoadDriver driver(workload, driver_options);
  Result<load::LoadReport> run = driver.Run();
  chaos_stop.store(true);
  if (chaos.joinable()) chaos.join();
  if (!run.ok()) {
    std::fprintf(stderr, "driver: %s\n", run.status().ToString().c_str());
    return 2;
  }
  const load::LoadReport& report = *run;

  // Graceful shutdown of the spawned daemon (protocol verb, then reap).
  bool clean_shutdown = true;
  if (daemon != nullptr) {
    clean_shutdown = false;
    if (daemon->Running()) {
      Result<serve::ClientConnection> conn =
          serve::ClientConnection::Connect(daemon->port(), 5000);
      if (conn.ok()) {
        serve::Request request;
        request.type = serve::RequestType::kShutdown;
        (void)conn->Call(request, 10000);
      }
      clean_shutdown = daemon->Reap(30000);
    }
  }

  std::printf("replay done in %.1fs: %zu done, %zu cancelled, %zu failed, "
              "%zu unfinished; %llu submits (%llu sheds, %llu reconnects, "
              "%llu interrupted)\n",
              report.wall_seconds, report.done, report.cancelled,
              report.failed, report.unfinished,
              static_cast<unsigned long long>(report.submits),
              static_cast<unsigned long long>(report.sheds),
              static_cast<unsigned long long>(report.reconnects),
              static_cast<unsigned long long>(report.interrupted));

  std::printf("oracle: replaying clean sessions in-process...\n");
  std::fflush(stdout);
  const load::OracleReport oracle =
      load::VerifyAgainstOracle(workload, report);
  std::printf("oracle: %zu checked, %zu skipped, %zu mismatched\n",
              oracle.checked, oracle.skipped, oracle.mismatched);
  for (const auto& m : oracle.mismatches)
    std::printf("oracle MISMATCH: %s\n", m.c_str());

  // SLOs from the loadgen's own registry: the daemon's registry resets on
  // every restart, so only the client sees the whole run.
  auto& registry = obs::MetricsRegistry::Global();
  const obs::HistogramSnapshot poll =
      registry.histogram("loadgen_poll_ns")->Snapshot();
  const obs::HistogramSnapshot submit_done =
      registry.histogram("loadgen_submit_to_done_ns")->Snapshot();
  const double poll_p99_ms = poll.p99 / 1e6;
  const double submit_done_p99_ms = submit_done.p99 / 1e6;

  const double slo_shed_rate =
      ParseDoubleFlag(argc, argv, "--slo-shed-rate=", 0.9);
  const double slo_poll_p99_ms =
      ParseDoubleFlag(argc, argv, "--slo-poll-p99-ms=", 500.0);
  const double slo_submit_p99_ms =
      ParseDoubleFlag(argc, argv, "--slo-submit-p99-ms=", 120000.0);

  const bool all_terminal = report.all_terminal;
  const bool none_failed = report.failed == 0;
  const bool none_lost = report.lost_after_ack == 0;
  const bool oracle_match = oracle.all_match() && oracle.checked > 0;
  // Restart recovery: every requested kill was followed by a successful
  // restart that kept serving (sessions still finished, nothing acked was
  // lost). Vacuously true without kills.
  const bool restart_recovered =
      kills == 0 ||
      (restarts_done >= kills && report.done > 0 && none_lost);
  const bool shed_ok = report.shed_rate() <= slo_shed_rate;
  const bool poll_ok = poll_p99_ms <= slo_poll_p99_ms;
  const bool submit_ok = submit_done_p99_ms <= slo_submit_p99_ms;
  // Every clean done session's closing poll echoed the trace id its final
  // submit carried (end-to-end propagation; docs/PROTOCOL.md "trace_id").
  const bool trace_ids_echoed =
      report.trace_ids_echoed && report.trace_checked > 0;

  const double jobs_per_sec =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.submits) / report.wall_seconds
          : 0.0;

  json::Value summary = json::Value::Object();
  summary.Set("bench", "load_replay");
  summary.Set("hardware_cores",
              static_cast<long long>(std::thread::hardware_concurrency()));
  summary.Set("sessions", workload.sessions.size());
  summary.Set("total_ops", workload.TotalOps());
  summary.Set("kills_requested", kills);
  summary.Set("restarts_done", restarts_done);
  summary.Set("submits", static_cast<long long>(report.submits));
  summary.Set("sheds", static_cast<long long>(report.sheds));
  summary.Set("reconnects", static_cast<long long>(report.reconnects));
  summary.Set("cancels_sent", static_cast<long long>(report.cancels_sent));
  summary.Set("interrupted", static_cast<long long>(report.interrupted));
  summary.Set("stalled_streams",
              static_cast<long long>(report.stalled_streams));
  summary.Set("sessions_done", report.done);
  summary.Set("sessions_cancelled", report.cancelled);
  summary.Set("oracle_checked", oracle.checked);
  summary.Set("oracle_skipped", oracle.skipped);
  summary.Set("trace_checked", report.trace_checked);
  summary.Set("replay_wall_seconds", report.wall_seconds);
  summary.Set("load_jobs_per_sec", jobs_per_sec);
  summary.Set("shed_rate", report.shed_rate());
  summary.Set("poll_p99_ms", poll_p99_ms);
  summary.Set("submit_done_p99_ms", submit_done_p99_ms);
  summary.Set("all_sessions_terminal", all_terminal);
  summary.Set("no_sessions_failed", none_failed);
  summary.Set("no_acknowledged_lost", none_lost);
  summary.Set("restart_recovered", restart_recovered);
  summary.Set("oracle_match", oracle_match);
  summary.Set("oracle_covers_clean", oracle.covers_clean);
  summary.Set("trace_ids_echoed", trace_ids_echoed);
  summary.Set("slo_shed_rate_ok", shed_ok);
  summary.Set("slo_poll_p99_ok", poll_ok);
  summary.Set("slo_submit_p99_ok", submit_ok);
  summary.Set("daemon_clean_shutdown", clean_shutdown);

  const std::string out = bench::ParseStringFlag(
      argc, argv, "--out=", ResultsDir() + "/BENCH_load.json");
  ST_CHECK_OK(bench::WriteBenchJson(out, summary));

  const bool pass = all_terminal && none_failed && none_lost &&
                    restart_recovered && oracle_match &&
                    oracle.covers_clean && trace_ids_echoed &&
                    shed_ok && poll_ok && submit_ok && clean_shutdown;
  std::printf("SLO: shed %.3f (<= %.2f %s), poll p99 %.1f ms (<= %.0f %s), "
              "submit->done p99 %.1f ms (<= %.0f %s)\n",
              report.shed_rate(), slo_shed_rate, shed_ok ? "ok" : "FAIL",
              poll_p99_ms, slo_poll_p99_ms, poll_ok ? "ok" : "FAIL",
              submit_done_p99_ms, slo_submit_p99_ms,
              submit_ok ? "ok" : "FAIL");
  std::printf("Summary written to %s — %s\n", out.c_str(),
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
