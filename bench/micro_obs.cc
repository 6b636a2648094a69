// Observability microbenchmark: the cost of the metrics layer and the
// flight recorder.
//
// Part 1 times the hot-path primitives (Counter::Add, Histogram::Record,
// Recorder::Record) single-threaded, under an 8-thread hammer, and with
// each subsystem disabled (the SetEnabled(false) fast paths). Part 2
// validates the log-bucketed histogram's quantiles against an exact sorted
// reference on a log-normal workload. Part 3 is the overhead gate: the
// same in-process serve wave (real TCP, concurrent tuning jobs) runs
// with metrics enabled and disabled in alternating pairs — the flight
// recorder stays ON in both waves, as in production ("always-on") — and
// the median enabled/disabled ratio must stay under the 3% budget
// documented in docs/OBSERVABILITY.md.
//
// Writes BENCH_obs.json (gated against bench/baselines/ by
// scripts/check_bench.py: the wall-second keys and the booleans).
//
// Usage: bench_micro_obs [--pairs=5] [--jobs=4] [--rows=60] [--threads=0]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "serve/client.h"
#include "serve/server.h"

namespace slicetuner {
namespace {

constexpr int kSingleThreadOps = 4'000'000;
constexpr int kHammerThreads = 8;
constexpr int kHammerOpsPerThread = 500'000;

double NsPerOp(double seconds, double ops) { return seconds * 1e9 / ops; }

double TimeCounterSingle(obs::Counter* counter) {
  Stopwatch timer;
  for (int i = 0; i < kSingleThreadOps; ++i) counter->Add();
  return NsPerOp(timer.ElapsedSeconds(), kSingleThreadOps);
}

double TimeCounterHammer(obs::Counter* counter) {
  std::vector<std::thread> threads;
  Stopwatch timer;
  for (int t = 0; t < kHammerThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kHammerOpsPerThread; ++i) counter->Add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  return NsPerOp(timer.ElapsedSeconds(),
                 static_cast<double>(kHammerThreads) * kHammerOpsPerThread);
}

double TimeHistogramSingle(obs::Histogram* histogram) {
  Stopwatch timer;
  for (int i = 0; i < kSingleThreadOps; ++i) {
    histogram->Record(static_cast<uint64_t>(i));
  }
  return NsPerOp(timer.ElapsedSeconds(), kSingleThreadOps);
}

double TimeHistogramHammer(obs::Histogram* histogram) {
  std::vector<std::thread> threads;
  Stopwatch timer;
  for (int t = 0; t < kHammerThreads; ++t) {
    threads.emplace_back([histogram, t] {
      for (int i = 0; i < kHammerOpsPerThread; ++i) {
        histogram->Record(static_cast<uint64_t>(i * (t + 1)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return NsPerOp(timer.ElapsedSeconds(),
                 static_cast<double>(kHammerThreads) * kHammerOpsPerThread);
}

double TimeRecorderSingle(obs::Recorder* recorder) {
  Stopwatch timer;
  for (int i = 0; i < kSingleThreadOps; ++i) {
    recorder->Record(obs::EventKind::kRequestRecv, 0x1234, "bench", i);
  }
  return NsPerOp(timer.ElapsedSeconds(), kSingleThreadOps);
}

double TimeRecorderHammer(obs::Recorder* recorder) {
  std::vector<std::thread> threads;
  Stopwatch timer;
  for (int t = 0; t < kHammerThreads; ++t) {
    threads.emplace_back([recorder, t] {
      for (int i = 0; i < kHammerOpsPerThread; ++i) {
        recorder->Record(obs::EventKind::kRequestRecv,
                         static_cast<uint64_t>(t + 1), "bench", i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return NsPerOp(timer.ElapsedSeconds(),
                 static_cast<double>(kHammerThreads) * kHammerOpsPerThread);
}

/// Quantile estimates from the log-bucketed histogram must land within one
/// bucket (<= 12.5% relative width) of the exact order statistics.
bool QuantilesAccurate() {
  obs::Histogram histogram;
  Rng rng(41);
  std::vector<uint64_t> values;
  values.reserve(50'000);
  for (int i = 0; i < 50'000; ++i) {
    const uint64_t v = static_cast<uint64_t>(rng.LogNormal(9.0, 2.0));
    values.push_back(v);
    histogram.Record(v);
  }
  std::sort(values.begin(), values.end());
  const obs::HistogramSnapshot snapshot = histogram.Snapshot();
  const struct {
    double q;
    double estimate;
  } probes[] = {{0.5, snapshot.p50}, {0.9, snapshot.p90},
                {0.99, snapshot.p99}};
  bool ok = true;
  for (const auto& probe : probes) {
    const double rank = probe.q * (values.size() - 1);
    const double exact =
        static_cast<double>(values[static_cast<size_t>(rank)]);
    const double tolerance = 0.13 * exact + 1.0;
    if (std::fabs(probe.estimate - exact) > tolerance) {
      std::fprintf(stderr, "p%g: estimate %.1f vs exact %.1f (tol %.1f)\n",
                   probe.q * 100, probe.estimate, exact, tolerance);
      ok = false;
    }
  }
  return ok;
}

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

/// One full serve wave: fresh server, `jobs` tuning jobs over real TCP,
/// polled to completion. Returns wall seconds (negative on any failure).
double ServeWave(int jobs, long long rows, int threads) {
  serve::ServerOptions options;
  options.admission.max_queue_depth = static_cast<size_t>(jobs) + 4;
  options.max_concurrent_sessions = threads;
  serve::TuningServer server(options);
  ST_CHECK_OK(server.Start());
  auto connection = serve::ClientConnection::Connect(server.port());
  ST_CHECK_OK(connection.status());

  Stopwatch timer;
  double wall = -1.0;
  bool ok = true;
  for (int j = 0; j < jobs && ok; ++j) {
    auto response = connection->Call(SubmitRequest(
        "obs-" + std::to_string(j), static_cast<uint64_t>(j + 1), rows));
    ST_CHECK_OK(response.status());
    ok = serve::IsOkResponse(*response);
  }
  for (int j = 0; j < jobs && ok; ++j) {
    const std::string session = "obs-" + std::to_string(j);
    for (;;) {
      serve::Request poll;
      poll.type = serve::RequestType::kPoll;
      poll.session = session;
      auto response = connection->Call(poll);
      ST_CHECK_OK(response.status());
      const std::string state = response->GetString("state");
      if (state == "done") break;
      if (state == "failed" || state == "cancelled") {
        std::fprintf(stderr, "session %s ended %s\n", session.c_str(),
                     state.c_str());
        ok = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  if (ok) wall = timer.ElapsedSeconds();
  server.RequestShutdown();
  server.Wait();
  return wall;
}

}  // namespace
}  // namespace slicetuner

int main(int argc, char** argv) {
  using namespace slicetuner;
  const int pairs = std::max(1, bench::ParseIntFlag(argc, argv, "--pairs=", 5));
  const int jobs = std::max(1, bench::ParseIntFlag(argc, argv, "--jobs=", 4));
  const long long rows = bench::ParseIntFlag(argc, argv, "--rows=", 60);
  const int threads = bench::ParseThreadsFlag(argc, argv, /*default=*/0);
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("=== Observability microbenchmark: metric primitives + serve "
              "overhead gate ===\n");

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.SetEnabled(true);
  obs::Counter* counter = registry.counter("bench_obs_counter");
  obs::Histogram* histogram = registry.histogram("bench_obs_histogram");

  const double counter_ns = TimeCounterSingle(counter);
  const double counter_ns_8t = TimeCounterHammer(counter);
  const double histogram_ns = TimeHistogramSingle(histogram);
  const double histogram_ns_8t = TimeHistogramHammer(histogram);
  registry.SetEnabled(false);
  const double counter_disabled_ns = TimeCounterSingle(counter);
  registry.SetEnabled(true);

  std::printf("counter   : %.1f ns/op single, %.1f ns/op x%d threads, "
              "%.2f ns/op disabled\n",
              counter_ns, counter_ns_8t, kHammerThreads,
              counter_disabled_ns);
  std::printf("histogram : %.1f ns/op single, %.1f ns/op x%d threads\n",
              histogram_ns, histogram_ns_8t, kHammerThreads);

  obs::Recorder& recorder = obs::Recorder::Global();
  recorder.SetEnabled(true);
  const double recorder_ns = TimeRecorderSingle(&recorder);
  const double recorder_ns_8t = TimeRecorderHammer(&recorder);
  recorder.SetEnabled(false);
  const double recorder_disabled_ns = TimeRecorderSingle(&recorder);
  recorder.SetEnabled(true);
  recorder.Reset();
  std::printf("recorder  : %.1f ns/op single, %.1f ns/op x%d threads, "
              "%.2f ns/op disabled\n",
              recorder_ns, recorder_ns_8t, kHammerThreads,
              recorder_disabled_ns);

  const bool quantiles_accurate = QuantilesAccurate();
  std::printf("quantiles : p50/p90/p99 within one bucket of exact: %s\n",
              quantiles_accurate ? "yes" : "NO (BUG)");

  // Overhead gate: alternating enabled/disabled serve waves; the median
  // ratio keeps one noisy wave from deciding the verdict. The flight
  // recorder records through every wave — the budget is measured with the
  // always-on subsystem on, exactly as production runs.
  std::vector<double> ratios;
  std::vector<double> enabled_walls;
  std::vector<double> disabled_walls;
  bool waves_ok = true;
  for (int p = 0; p < pairs && waves_ok; ++p) {
    registry.Reset();
    registry.SetEnabled(true);
    const double enabled = ServeWave(jobs, rows, threads);
    registry.SetEnabled(false);
    const double disabled = ServeWave(jobs, rows, threads);
    registry.SetEnabled(true);
    waves_ok = enabled > 0.0 && disabled > 0.0;
    if (!waves_ok) break;
    enabled_walls.push_back(enabled);
    disabled_walls.push_back(disabled);
    ratios.push_back(enabled / disabled);
    std::printf("pair %d    : enabled %.3fs, disabled %.3fs, ratio %.4f\n",
                p + 1, enabled, disabled, enabled / disabled);
  }

  double median_ratio = 0.0;
  double enabled_median = -1.0;
  double disabled_median = -1.0;
  if (waves_ok) {
    auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    median_ratio = median(ratios);
    enabled_median = median(enabled_walls);
    disabled_median = median(disabled_walls);
  }
  const double overhead = median_ratio - 1.0;
  const bool within_budget = waves_ok && overhead < 0.03;
  std::printf("overhead  : median ratio %.4f (%.2f%%), budget 3%%: %s\n",
              median_ratio, overhead * 100,
              within_budget ? "within" : "EXCEEDED");

  const std::string json_path = bench::ResultsDir() + "/BENCH_obs.json";
  json::Value summary = json::Value::Object();
  summary.Set("bench", "obs_overhead");
  summary.Set("hardware_cores", static_cast<long long>(cores));
  summary.Set("threads", threads);
  summary.Set("pairs", pairs);
  summary.Set("jobs", jobs);
  summary.Set("rows_per_slice", rows);
  summary.Set("counter_ns_per_op", counter_ns);
  summary.Set("counter_ns_per_op_8t", counter_ns_8t);
  summary.Set("counter_disabled_ns_per_op", counter_disabled_ns);
  summary.Set("histogram_ns_per_op", histogram_ns);
  summary.Set("histogram_ns_per_op_8t", histogram_ns_8t);
  summary.Set("recorder_ns_per_op", recorder_ns);
  summary.Set("recorder_ns_per_op_8t", recorder_ns_8t);
  summary.Set("recorder_disabled_ns_per_op", recorder_disabled_ns);
  summary.Set("recorder_always_on", recorder.Enabled());
  summary.Set("quantiles_accurate", quantiles_accurate);
  summary.Set("serve_enabled_wall_seconds", enabled_median);
  summary.Set("serve_disabled_wall_seconds", disabled_median);
  summary.Set("obs_overhead_ratio", median_ratio);
  summary.Set("obs_overhead_within_budget", within_budget);
  ST_CHECK_OK(bench::WriteBenchJson(json_path, summary));
  std::printf("Summary written to %s\n", json_path.c_str());
  return (quantiles_accurate && within_budget) ? 0 : 1;
}
