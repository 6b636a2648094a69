// Turns the records of perfbench runs into named metrics: the end-to-end
// view of an untraced run, and the per-layer view of a traced run joined
// with its untraced twin.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <string>
#include <vector>

#include "measure.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (jobs, spawns, polls, or counter events).
  size_t samples = 0;
};

/// The end-to-end metrics BENCHMARK.json declares and bounds, in its order.
std::vector<Metric> EndToEnd(const RunResult& run);

/// End-to-end metrics printed beside the bounded ones but not bounded:
/// the p99s and the ack latencies, whose run-to-run spread on a shared
/// 4-vCPU box (fsync latency) is wider than any bound allowed, and
/// shed_ratio and fail_ratio, which read 0 on a healthy run.
std::vector<Metric> Ungated(const RunResult& run);

/// The per-layer metrics BENCHMARK.json declares, from `traced` and the
/// untraced run of the same seed. Writes the span trees of the traced
/// run's measured jobs, with self times, to `spans_path`.
std::vector<Metric> PerLayer(const RunResult& traced, const RunResult& untraced,
                             const std::string& spans_path);

/// The span tree of one traced job, from the client's timestamps and the
/// daemon's done-frame tree. Daemon spans carry durations only, so they
/// are laid out left-aligned: queue wait from the ack, the job right after
/// it, its rounds back to back, and each round's stages back to back. The
/// root's self time is the unattributed remainder (frame flush, batch hold,
/// socket).
std::vector<Span> BuildSpans(const JobRecord& job);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
