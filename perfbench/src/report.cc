#include "report.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

using slicetuner::json::Value;

namespace {

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::vector<const JobRecord*> Measured(const RunResult& run) {
  std::vector<const JobRecord*> out;
  for (const JobRecord& job : run.jobs) {
    if (job.measured && job.state == "done") out.push_back(&job);
  }
  return out;
}

Metric Quantile(const std::string& name, const std::vector<double>& samples,
                double p, const std::string& unit) {
  return {name, Percentile(samples, p), unit, samples.size()};
}

double Counter(const Value& registry, const std::string& name) {
  const Value* counters = registry.Find("counters");
  return counters == nullptr ? 0.0 : counters->GetDouble(name, 0.0);
}

double CounterDelta(const RunResult& run, const std::string& name) {
  return Counter(run.metrics_after, name) - Counter(run.metrics_before, name);
}

// (count, sum) of a histogram between the two registry reads.
std::pair<double, double> HistogramDelta(const RunResult& run,
                                         const std::string& name) {
  auto read = [&](const Value& registry) -> std::pair<double, double> {
    const Value* histograms = registry.Find("histograms");
    const Value* h = histograms == nullptr ? nullptr : histograms->Find(name);
    if (h == nullptr) return {0.0, 0.0};
    return {h->GetDouble("count", 0.0), h->GetDouble("sum", 0.0)};
  };
  const auto before = read(run.metrics_before);
  const auto after = read(run.metrics_after);
  return {after.first - before.first, after.second - before.second};
}

Metric HistogramMean(const RunResult& run, const std::string& metric,
                     const std::string& histogram, double scale,
                     const std::string& unit) {
  const auto [count, sum] = HistogramDelta(run, histogram);
  return {metric, Ratio(sum, count) * scale, unit,
          static_cast<size_t>(std::max(0.0, count))};
}

double DonePercentile(const RunResult& run, double p) {
  std::vector<double> done;
  for (const JobRecord* job : Measured(run)) done.push_back(Ms(job->done_ns - job->due_ns));
  return Percentile(done, p);
}

// A round's stages in the order RunRounds runs them, with the module each
// is charged to.
struct Stage {
  const char* key;
  const char* name;
  const char* layer;
};
constexpr Stage kStages[] = {{"estimate_ms", "estimate", "engine"},
                             {"plan_ms", "plan", "opt"},
                             {"acquire_ms", "acquire", "sim"}};

// Stage duration of a round span, in ns (0 when the stage did not run).
int64_t StageNs(const Value& round, const char* stage) {
  const Value* stages = round.Find("stages");
  return stages == nullptr
             ? 0
             : static_cast<int64_t>(stages->GetDouble(stage, 0.0) * 1e6);
}

void WriteSpansFile(const std::string& path, const RunResult& run,
                    const LayerTotals& totals) {
  std::ofstream out(path);
  for (const JobRecord* job : Measured(run)) {
    const std::vector<Span> spans = BuildSpans(*job);
    const std::vector<int64_t> self = SelfTimes(spans);
    Value line = Value::Object();
    line.Set("trace_id", job->tree.GetString("trace_id"));
    line.Set("session", job->spec.session);
    Value items = Value::Array();
    for (size_t i = 0; i < spans.size(); ++i) {
      Value span = Value::Object();
      span.Set("name", spans[i].name);
      span.Set("layer", spans[i].layer);
      span.Set("parent", spans[i].parent);
      span.Set("start_ns", static_cast<long long>(spans[i].start_ns - run.window_start_ns));
      span.Set("end_ns", static_cast<long long>(spans[i].end_ns - run.window_start_ns));
      span.Set("self_ns", static_cast<long long>(self[i]));
      items.Append(std::move(span));
    }
    line.Set("spans", std::move(items));
    out << line.Dump() << "\n";
  }
  Value summary = Value::Object();
  Value layers = Value::Object();
  for (const auto& [layer, ns] : totals.self_ns) {
    Value entry = Value::Object();
    entry.Set("self_ms", Ms(ns));
    entry.Set("share", totals.Share(layer));
    layers.Set(layer, std::move(entry));
  }
  summary.Set("root_ms", Ms(totals.root_ns));
  summary.Set("layers", std::move(layers));
  out << summary.Dump() << "\n";
}

}  // namespace

std::vector<Span> BuildSpans(const JobRecord& job) {
  std::vector<Span> spans;
  spans.push_back({"job", "client", -1, job.send_ns, job.done_ns});
  spans.push_back({"submit", "serve", 0, job.send_ns, job.ack_ns});
  const int64_t queue_end = std::max(
      job.ack_ns,
      job.send_ns + static_cast<int64_t>(job.tree.GetDouble("queue_wait_ms") * 1e6));
  spans.push_back({"queue_wait", "serve", 0, job.ack_ns, queue_end});
  const int run = static_cast<int>(spans.size());
  spans.push_back({"run", "serve", 0, queue_end,
                   queue_end + static_cast<int64_t>(job.tree.GetDouble("total_ms") * 1e6)});
  int64_t cursor = queue_end;
  if (const Value* rounds = job.tree.Find("rounds")) {
    for (const Value& round : rounds->items()) {
      const int parent = static_cast<int>(spans.size());
      const int64_t round_ns = static_cast<int64_t>(round.GetDouble("total_ms") * 1e6);
      spans.push_back({"round", "serve", run, cursor, cursor + round_ns});
      int64_t stage_cursor = cursor;
      for (const Stage& stage : kStages) {
        const int64_t ns = StageNs(round, stage.key);
        if (ns <= 0) continue;
        spans.push_back({stage.name, stage.layer, parent, stage_cursor, stage_cursor + ns});
        stage_cursor += ns;
      }
      cursor += round_ns;
    }
  }
  return spans;
}

std::vector<Metric> EndToEnd(const RunResult& run) {
  const std::vector<const JobRecord*> jobs = Measured(run);
  std::vector<double> done, first_frame;
  int64_t last_done = run.window_start_ns;
  for (const JobRecord* job : jobs) {
    done.push_back(Ms(job->done_ns - job->due_ns));
    if (job->first_frame_ns > 0) first_frame.push_back(Ms(job->first_frame_ns - job->due_ns));
    last_done = std::max(last_done, job->done_ns);
  }
  const double window_s = static_cast<double>(last_done - run.window_start_ns) / 1e9;
  return {
      {"setup_s", Percentile(run.setups, 0.5), "s", run.setups.size()},
      {"jobs_per_s", Ratio(static_cast<double>(jobs.size()), window_s), "jobs/s", jobs.size()},
      Quantile("done_p50_ms", done, 0.50, "ms"),
      Quantile("first_frame_p50_ms", first_frame, 0.50, "ms"),
      {"peak_rss_mb", run.peak_rss_mb, "MiB", 1},
  };
}

std::vector<Metric> Ungated(const RunResult& run) {
  std::vector<double> done, ack;
  for (const JobRecord* job : Measured(run)) {
    done.push_back(Ms(job->done_ns - job->due_ns));
    ack.push_back(Ms(job->ack_ns - job->send_ns));
  }
  double attempts = 0.0, sheds = 0.0;
  for (const JobRecord& job : run.jobs) {
    attempts += job.attempts;
    sheds += job.sheds;
  }
  return {
      Quantile("done_p99_ms", done, 0.99, "ms"),
      Quantile("ack_p50_ms", ack, 0.50, "ms"),
      Quantile("ack_p99_ms", ack, 0.99, "ms"),
      {"shed_ratio", Ratio(sheds, attempts), "ratio", static_cast<size_t>(attempts)},
      {"fail_ratio",
       Ratio(static_cast<double>(run.failures.size()), static_cast<double>(run.jobs.size())),
       "ratio", run.jobs.size()},
  };
}

std::vector<Metric> PerLayer(const RunResult& traced, const RunResult& untraced,
                             const std::string& spans_path) {
  const std::vector<const JobRecord*> jobs = Measured(traced);
  std::vector<double> queue, run_ms, hold, polls, estimate, unattributed, plan,
      acquire, trainings;
  LayerTotals totals;
  for (const JobRecord* job : jobs) {
    const double queue_ms = job->tree.GetDouble("queue_wait_ms");
    const double total_ms = job->tree.GetDouble("total_ms");
    queue.push_back(queue_ms);
    run_ms.push_back(total_ms);
    hold.push_back(Ms(job->done_ns - job->send_ns) - queue_ms - total_ms);
    for (const auto& [start, end] : job->polls) polls.push_back(Ms(end - start));
    double rounds_ms = 0.0, est = 0.0, pl = 0.0, acq = 0.0;
    if (const Value* rounds = job->tree.Find("rounds")) {
      for (const Value& round : rounds->items()) {
        rounds_ms += round.GetDouble("total_ms");
        est += Ms(StageNs(round, "estimate_ms"));
        pl += Ms(StageNs(round, "plan_ms"));
        acq += Ms(StageNs(round, "acquire_ms"));
      }
    }
    estimate.push_back(est);
    plan.push_back(pl);
    acquire.push_back(acq);
    unattributed.push_back(total_ms - rounds_ms);
    trainings.push_back(static_cast<double>(job->snapshot.GetInt("last_job_trainings")));
    totals.Add(BuildSpans(*job));
  }
  WriteSpansFile(spans_path, traced, totals);

  // Counter deltas span the whole load, warm-up included, so per-job
  // ratios divide by every job the daemon finished in between.
  const double jobs_done = CounterDelta(traced, "serve_jobs_done_total");
  const double reused = CounterDelta(traced, "engine_slices_reused_total");
  const double refit = CounterDelta(traced, "engine_slices_refit_total");
  const double fsyncs = HistogramDelta(traced, "store_fsync_ns").first;
  const size_t n = jobs.size();
  const auto count = [](double v) { return static_cast<size_t>(std::max(0.0, v)); };
  const double untraced_p50 = DonePercentile(untraced, 0.5);
  std::vector<Metric> metrics = {
      Quantile("serve.queue_wait_ms.p50", queue, 0.50, "ms"),
      Quantile("serve.queue_wait_ms.p99", queue, 0.99, "ms"),
      Quantile("serve.job_ms.p50", run_ms, 0.50, "ms"),
      Quantile("serve.job_ms.p99", run_ms, 0.99, "ms"),
      Quantile("serve.hold_ms.p50", hold, 0.50, "ms"),
      Quantile("serve.hold_ms.p99", hold, 0.99, "ms"),
      Quantile("serve.poll_ms.p50", polls, 0.50, "ms"),
      Quantile("serve.poll_ms.p99", polls, 0.99, "ms"),
      HistogramMean(traced, "serve.batch_size.mean", "serve_batch_size", 1.0, "count"),
      {"serve.requests_per_job",
       Ratio(CounterDelta(traced, "serve_requests_total"), jobs_done), "count",
       count(jobs_done)},
      Quantile("engine.estimate_ms.p50", estimate, 0.50, "ms"),
      Quantile("engine.estimate_ms.p99", estimate, 0.99, "ms"),
      Quantile("session.unattributed_ms.p50", unattributed, 0.50, "ms"),
      {"engine.trainings_per_job", Mean(trainings), "count", trainings.size()},
      {"engine.slice_reuse_ratio", Ratio(reused, reused + refit), "ratio",
       count(reused + refit)},
      {"engine.full_runs", CounterDelta(traced, "engine_cache_full_runs_total"), "count",
       count(jobs_done)},
      {"engine.partial_refits", CounterDelta(traced, "engine_cache_partial_refits_total"),
       "count", count(jobs_done)},
      HistogramMean(traced, "pool.queue_wait_ms.mean", "pool_queue_wait_ns", 1e-6, "ms"),
      Quantile("opt.plan_ms.p50", plan, 0.50, "ms"),
      Quantile("acquire.ms.p50", acquire, 0.50, "ms"),
      HistogramMean(traced, "store.append_us.mean", "store_append_ns", 1e-3, "us"),
      HistogramMean(traced, "store.fsync_ms.mean", "store_fsync_ns", 1e-6, "ms"),
      {"store.fsyncs", fsyncs, "count", count(fsyncs)},
      HistogramMean(traced, "store.records_per_fsync", "store_commit_records", 1.0, "count"),
      {"store.open_ms", traced.store_open_ms, "ms", 1},
      {"store.restore_ms", traced.store_restore_ms, "ms", 1},
      {"store.records_replayed", traced.records_replayed, "count", 1},
      {"store.warm_slices", traced.warm_slices, "count", 1},
      {"store.slices", traced.slices, "count", 1},
      {"trace.overhead_ratio", Ratio(DonePercentile(traced, 0.5), untraced_p50), "ratio", n},
      {"trace.unattributed_share", totals.Share("unattributed"), "ratio", n},
      {"trace.self_share.serve", totals.Share("serve"), "ratio", n},
      {"trace.self_share.engine", totals.Share("engine"), "ratio", n},
      {"trace.self_share.opt", totals.Share("opt"), "ratio", n},
      {"trace.self_share.sim", totals.Share("sim"), "ratio", n},
  };
  // The unbounded end-to-end metrics ride along, from the untraced twin.
  for (Metric& metric : Ungated(untraced)) metrics.push_back(std::move(metric));
  return metrics;
}

}  // namespace perfbench
