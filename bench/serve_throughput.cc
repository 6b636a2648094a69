// Serve throughput benchmark, two modes over the real TCP protocol:
//
//  * Closed loop (legacy): one connection submits `jobs` curve-estimation
//    ("moderate") sessions and polls them to completion — serial (one
//    session in flight) vs concurrent (up to --threads sessions in flight,
//    0 = one per pool worker). This wave is dominated by the tuning math,
//    so it measures end-to-end job latency. The JSON keeps its historical
//    `unbatched_*`/`batched_*` key names for the serial/concurrent waves.
//
//  * Open loop (ISSUE 7): many concurrent connections across several
//    client threads fire cheap baseline ("uniform") jobs as fast as
//    admission accepts them — no waiting for a previous job before the
//    next submit — then drain every session to a terminal state. Baseline
//    jobs do no model training, so this mode measures the serve path
//    itself: epoll workers, framing, sharded dispatch, and stream/poll
//    flushing. The headline `throughput_jobs_per_sec` and the
//    `batched_submit_speedup` (1 dispatch shard vs 4 shards) come from
//    this mode; the seed's poll-loop server sustained 90.2 jobs/s here,
//    and the epoll overhaul must clear 10x that
//    (`open_loop_10x_over_seed`) with sharded dispatch a genuine win
//    (`batching_wins`, named for the micro-batching it once measured).
//
// Also probes that admission control actually sheds load under a burst.
// Writes BENCH_serve.json (gated against bench/baselines/ by
// scripts/check_bench.py: speedups, throughputs, and the correctness
// booleans).
//
// Usage: bench_serve_throughput [--jobs=16] [--rows=40] [--threads=0]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"

namespace slicetuner {
namespace {

serve::Request SubmitRequest(const std::string& session, uint64_t seed,
                             long long rows) {
  serve::Request request;
  request.type = serve::RequestType::kSubmitJob;
  request.job.session = session;
  request.job.num_slices = 4;
  request.job.rows_per_slice = rows;
  request.job.budget = 60.0;
  request.job.rounds = 1;
  request.job.method = "moderate";
  request.job.seed = seed;
  request.session = session;
  return request;
}

serve::Request SessionRequest(serve::RequestType type,
                              const std::string& session) {
  serve::Request request;
  request.type = type;
  request.session = session;
  return request;
}

/// Submits `jobs` sessions and polls them all to completion; returns wall
/// seconds, or a negative value when anything failed.
double RunWave(int port, const std::string& prefix, int jobs, long long rows,
               bool* all_succeeded) {
  auto connection = serve::ClientConnection::Connect(port);
  ST_CHECK_OK(connection.status());
  Stopwatch timer;
  for (int j = 0; j < jobs; ++j) {
    const std::string session = prefix + std::to_string(j);
    for (;;) {
      auto response = connection->Call(
          SubmitRequest(session, static_cast<uint64_t>(j + 1), rows));
      ST_CHECK_OK(response.status());
      if (serve::IsOkResponse(*response)) break;
      // Shed: honor the retry-after hint and resubmit.
      const long long backoff = response->GetInt("retry_after_ms", 0);
      if (backoff == 0) {
        std::fprintf(stderr, "unexpected rejection: %s\n",
                     response->Dump().c_str());
        *all_succeeded = false;
        return -1.0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
  }
  for (int j = 0; j < jobs; ++j) {
    const std::string session = prefix + std::to_string(j);
    for (;;) {
      auto response = connection->Call(
          SessionRequest(serve::RequestType::kPoll, session));
      ST_CHECK_OK(response.status());
      const std::string state = response->GetString("state");
      if (state == "done") break;
      if (state == "failed" || state == "cancelled") {
        std::fprintf(stderr, "session %s ended %s: %s\n", session.c_str(),
                     state.c_str(), response->Dump().c_str());
        *all_succeeded = false;
        return -1.0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return timer.ElapsedSeconds();
}

double MeasureServer(int max_concurrent, int jobs, long long rows,
                     bool* all_succeeded) {
  serve::ServerOptions options;
  options.admission.max_queue_depth = static_cast<size_t>(jobs) + 4;
  options.max_concurrent_sessions = max_concurrent;
  serve::TuningServer server(options);
  ST_CHECK_OK(server.Start());
  const double wall = RunWave(server.port(),
                              max_concurrent == 1 ? "serial-" : "concurrent-",
                              jobs, rows, all_succeeded);
  server.RequestShutdown();
  server.Wait();
  return wall;
}

serve::Request UniformSubmit(const std::string& session, uint64_t seed) {
  serve::Request request;
  request.type = serve::RequestType::kSubmitJob;
  request.job.session = session;
  request.job.num_slices = 4;
  request.job.rows_per_slice = 16;
  request.job.budget = 16.0;
  request.job.rounds = 1;
  request.job.method = "uniform";  // baseline allocation: no training
  request.job.seed = seed;
  request.session = session;
  return request;
}

/// Submits with shed-retry until admitted; false on a hard failure.
bool SubmitWithRetry(serve::ClientConnection* connection,
                     const serve::Request& request) {
  for (int attempt = 0; attempt < 4000; ++attempt) {
    auto response = connection->Call(request);
    if (!response.ok()) return false;
    if (serve::IsOkResponse(*response)) return true;
    const long long backoff = response->GetInt("retry_after_ms", 0);
    if (backoff <= 0) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
  return false;
}

/// Open-loop load: `threads` client threads, each owning `conns` pipelined
/// connections, submit `jobs_per_conn` uniform jobs per connection as fast
/// as admission accepts them, then poll every session to a terminal state.
/// Returns wall seconds (negative on failure).
double RunOpenLoop(int port, int threads, int conns, int jobs_per_conn,
                   bool* all_succeeded) {
  std::atomic<bool> failed{false};
  Stopwatch timer;
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([port, t, conns, jobs_per_conn, &failed] {
      std::vector<Result<serve::ClientConnection>> lanes;
      for (int c = 0; c < conns; ++c) {
        lanes.push_back(serve::ClientConnection::Connect(port));
        if (!lanes.back().ok()) {
          failed = true;
          return;
        }
      }
      // Open loop: round-robin submits across the lanes; never wait for a
      // previous job to finish before the next submit.
      for (int j = 0; j < jobs_per_conn && !failed; ++j) {
        for (int c = 0; c < conns; ++c) {
          const std::string session = "ol-" + std::to_string(t) + "-" +
                                      std::to_string(c) + "-" +
                                      std::to_string(j);
          if (!SubmitWithRetry(
                  &*lanes[c],
                  UniformSubmit(session,
                                static_cast<uint64_t>(t * 1000 + j + 1)))) {
            failed = true;
            return;
          }
        }
      }
      // Drain: every submitted session must reach a clean terminal state.
      for (int c = 0; c < conns && !failed; ++c) {
        for (int j = 0; j < jobs_per_conn; ++j) {
          const std::string session = "ol-" + std::to_string(t) + "-" +
                                      std::to_string(c) + "-" +
                                      std::to_string(j);
          for (;;) {
            auto response = lanes[c]->Call(
                SessionRequest(serve::RequestType::kPoll, session));
            if (!response.ok()) {
              failed = true;
              break;
            }
            const std::string state = response->GetString("state");
            if (state == "done") break;
            if (state == "failed" || state == "cancelled") {
              failed = true;
              break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          if (failed) break;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double wall = timer.ElapsedSeconds();
  if (failed) {
    *all_succeeded = false;
    return -1.0;
  }
  return wall;
}

/// One open-loop configuration: `sharded` contrasts the seed-like serial
/// admission (1 dispatch shard) against the overhauled path (4 shards)
/// with the transport identical on both sides.
double MeasureOpenLoop(bool sharded, int threads, int conns,
                       int jobs_per_conn, bool* all_succeeded) {
  serve::ServerOptions options;
  options.num_workers = 4;
  options.max_connections = threads * conns + 8;
  options.admission.num_shards = sharded ? 4 : 1;
  options.admission.max_queue_depth = 1024;
  options.admission.retry_after_ms = 2;
  serve::TuningServer server(options);
  ST_CHECK_OK(server.Start());
  const double wall = RunOpenLoop(server.port(), threads, conns,
                                  jobs_per_conn, all_succeeded);
  server.RequestShutdown();
  server.Wait();
  return wall;
}

/// A burst against a depth-1 queue while a slow job runs must shed at least
/// one submission with a retry-after hint.
bool ProbeLoadShedding() {
  serve::ServerOptions options;
  options.max_concurrent_sessions = 1;
  options.admission.max_queue_depth = 1;
  options.admission.retry_after_ms = 25;
  serve::TuningServer server(options);
  ST_CHECK_OK(server.Start());
  auto connection = serve::ClientConnection::Connect(server.port());
  ST_CHECK_OK(connection.status());

  bool shed_seen = false;
  for (int j = 0; j < 6; ++j) {
    auto response = connection->Call(SubmitRequest(
        "burst-" + std::to_string(j), static_cast<uint64_t>(j + 1),
        /*rows=*/200));
    ST_CHECK_OK(response.status());
    if (!serve::IsOkResponse(*response) &&
        response->GetInt("retry_after_ms", 0) > 0) {
      shed_seen = true;
    }
  }
  for (int j = 0; j < 6; ++j) {
    (void)connection->Call(SessionRequest(serve::RequestType::kCancel,
                                          "burst-" + std::to_string(j)));
  }
  server.RequestShutdown();
  server.Wait();
  return shed_seen;
}

}  // namespace
}  // namespace slicetuner

int main(int argc, char** argv) {
  using namespace slicetuner;
  const int jobs = std::max(2, bench::ParseIntFlag(argc, argv, "--jobs=", 12));
  const long long rows = bench::ParseIntFlag(argc, argv, "--rows=", 160);
  const int threads = bench::ParseThreadsFlag(argc, argv, /*default=*/0);
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("=== Serve throughput: %d tuning jobs over TCP, "
              "serial vs concurrent ===\n", jobs);

  bool all_succeeded = true;
  const double serial_wall =
      MeasureServer(/*max_concurrent=*/1, jobs, rows, &all_succeeded);
  // Isolate the concurrent wave's latency distribution: the submit -> done
  // histogram read below should describe only this wave.
  obs::MetricsRegistry::Global().Reset();
  const double concurrent_wall =
      MeasureServer(threads, jobs, rows, &all_succeeded);
  const obs::HistogramSnapshot submit_done =
      obs::MetricsRegistry::Global()
          .histogram("serve_submit_to_done_ns")
          ->Snapshot();

  // Open loop: 4 threads x 16 connections x 8 jobs = 512 cheap jobs, the
  // serve path itself under many-connection load.
  const int ol_threads = 4;
  const int ol_conns = 16;
  const int ol_jobs_per_conn = 8;
  const int ol_jobs = ol_threads * ol_conns * ol_jobs_per_conn;
  const double ol_serial_wall =
      MeasureOpenLoop(/*sharded=*/false, ol_threads, ol_conns,
                      ol_jobs_per_conn, &all_succeeded);
  const double ol_sharded_wall =
      MeasureOpenLoop(/*sharded=*/true, ol_threads, ol_conns,
                      ol_jobs_per_conn, &all_succeeded);
  const bool shedding_works = ProbeLoadShedding();

  const bool valid = all_succeeded && serial_wall > 0.0 &&
                     concurrent_wall > 0.0 && ol_serial_wall > 0.0 &&
                     ol_sharded_wall > 0.0;
  const double closed_speedup = valid ? serial_wall / concurrent_wall : 0.0;
  const double closed_throughput = valid ? jobs / concurrent_wall : 0.0;
  const double ol_speedup = valid ? ol_serial_wall / ol_sharded_wall : 0.0;
  const double ol_throughput = valid ? ol_jobs / ol_sharded_wall : 0.0;
  // The seed's poll-loop server measured 90.2 jobs/s; the epoll overhaul
  // gates on 10x that, on every machine class that runs the bench.
  const double kSeedJobsPerSec = 90.2;
  const bool ten_x = ol_throughput > 10.0 * kSeedJobsPerSec;
  const bool batching_wins = ol_speedup > 1.0;

  std::printf("closed loop: serial %.3fs, concurrent %.3fs, "
              "speedup %.2fx, %.1f jobs/s\n",
              serial_wall, concurrent_wall, closed_speedup, closed_throughput);
  std::printf("open loop  : %d jobs over %d connections; 1 shard %.3fs, "
              "4 shards %.3fs\n",
              ol_jobs, ol_threads * ol_conns, ol_serial_wall,
              ol_sharded_wall);
  std::printf("open loop  : %.1f jobs/s sustained (%s 10x the 90.2 jobs/s "
              "seed), sharding speedup %.2fx (%s)\n",
              ol_throughput, ten_x ? "clears" : "BELOW", ol_speedup,
              batching_wins ? "wins" : "DOES NOT WIN");
  std::printf("admission  : load shedding %s\n",
              shedding_works ? "verified" : "NOT OBSERVED (BUG)");
  std::printf("latency    : submit->done p50 %.1f ms, p99 %.1f ms "
              "(%llu jobs, closed-loop concurrent wave)\n",
              submit_done.p50 / 1e6, submit_done.p99 / 1e6,
              static_cast<unsigned long long>(submit_done.count));

  const std::string json_path = bench::ResultsDir() + "/BENCH_serve.json";
  json::Value summary = json::Value::Object();
  summary.Set("bench", "serve_throughput");
  summary.Set("jobs", jobs);
  summary.Set("rows_per_slice", rows);
  summary.Set("hardware_cores", static_cast<long long>(cores));
  summary.Set("threads", threads);
  summary.Set("unbatched_wall_seconds", serial_wall);
  summary.Set("batched_wall_seconds", concurrent_wall);
  summary.Set("closed_loop_speedup", closed_speedup);
  summary.Set("closed_loop_jobs_per_sec", closed_throughput);
  summary.Set("open_loop_jobs", ol_jobs);
  summary.Set("open_loop_connections", ol_threads * ol_conns);
  summary.Set("open_loop_serial_wall_seconds", ol_serial_wall);
  summary.Set("open_loop_wall_seconds", ol_sharded_wall);
  summary.Set("batched_submit_speedup", ol_speedup);
  summary.Set("throughput_jobs_per_sec", ol_throughput);
  summary.Set("all_jobs_succeeded", all_succeeded);
  summary.Set("load_shedding_works", shedding_works);
  summary.Set("open_loop_10x_over_seed", ten_x);
  summary.Set("batching_wins", batching_wins);
  summary.Set("submit_done_p50_ms", submit_done.p50 / 1e6);
  summary.Set("submit_done_p99_ms", submit_done.p99 / 1e6);
  ST_CHECK_OK(bench::WriteBenchJson(json_path, summary));
  std::printf("Summary written to %s\n", json_path.c_str());
  return (valid && shedding_works && ten_x && batching_wins) ? 0 : 1;
}
